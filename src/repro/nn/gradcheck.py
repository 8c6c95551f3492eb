"""Finite-difference gradient checking for modules and losses.

Every layer in this framework is validated against central differences in
the test suite; this module provides the shared machinery.
"""

from __future__ import annotations

import numpy as np

from .losses import Loss
from .module import Module

__all__ = ["numerical_input_grad", "numerical_param_grads", "check_module_gradients"]


def _scalar_loss(module: Module, loss: Loss, x: np.ndarray, y: np.ndarray) -> float:
    return loss(module(x), y)


def _central_differences(f, arr: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of ``f()`` w.r.t. each element of ``arr``.

    Perturbs ``arr`` in place by index, so it works whatever the array's
    layout: ``reshape(-1)`` of a non-contiguous array is a copy, and a
    perturbation written there would never reach the module.
    """
    grad = np.zeros(arr.shape)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + eps
        plus = f()
        arr[i] = orig - eps
        minus = f()
        arr[i] = orig
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


def numerical_input_grad(
    module: Module,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of the loss w.r.t. the input array."""
    return _central_differences(lambda: _scalar_loss(module, loss, x, y), x, eps)


def numerical_param_grads(
    module: Module,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-6,
) -> dict[str, np.ndarray]:
    """Central-difference gradients for every trainable parameter."""
    grads: dict[str, np.ndarray] = {}
    for name, param in module.named_parameters():
        if not param.requires_grad:
            continue
        grads[name] = _central_differences(
            lambda: _scalar_loss(module, loss, x, y), param.data, eps
        )
    return grads


def check_module_gradients(
    module: Module,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    atol: float = 1e-5,
    rtol: float = 1e-4,
    check_input: bool = True,
) -> None:
    """Assert analytic gradients match finite differences.

    Runs one forward/backward pass and compares both the input gradient
    and every parameter gradient against central differences. Raises
    ``AssertionError`` on the first mismatch, naming the offender.
    """
    module.zero_grad()
    value = loss(module(x), y)
    if not np.isfinite(value):
        raise AssertionError(f"loss is not finite: {value}")
    analytic_input = module.backward(loss.backward())
    if check_input:
        numeric_input = numerical_input_grad(module, loss, x, y)
        if not np.allclose(analytic_input, numeric_input, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic_input - numeric_input))
            raise AssertionError(
                f"input gradient mismatch (max abs err {worst:.3e})"
            )
    numeric_params = numerical_param_grads(module, loss, x, y)
    for name, param in module.named_parameters():
        if not param.requires_grad:
            continue
        if not np.allclose(param.grad, numeric_params[name], atol=atol, rtol=rtol):
            worst = np.max(np.abs(param.grad - numeric_params[name]))
            raise AssertionError(
                f"parameter gradient mismatch for {name} "
                f"(max abs err {worst:.3e})"
            )
