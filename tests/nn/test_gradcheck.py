"""Tests for the finite-difference gradient checker itself."""

import numpy as np
import pytest

from repro.nn import Linear, MSELoss, check_module_gradients
from repro.nn.gradcheck import numerical_input_grad, numerical_param_grads


def transposed_storage(a: np.ndarray) -> np.ndarray:
    """The same values as ``a``, backed by storage in reversed axis order."""
    view = np.ascontiguousarray(a.T).T
    assert not view.flags.c_contiguous
    return view


def test_transposed_storage_parameter_gets_numeric_gradients():
    """Perturbations land by index, so a parameter whose storage is not
    C-contiguous still moves the loss (``reshape(-1)`` would be a copy)."""
    rng = np.random.default_rng(0)
    layer = Linear(4, 3, rng=rng)
    layer.weight.data = transposed_storage(layer.weight.data)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 3))
    loss = MSELoss()
    layer.zero_grad()
    loss(layer(x), y)
    layer.backward(loss.backward())
    numeric = numerical_param_grads(layer, loss, x, y)
    assert np.abs(numeric["weight"]).max() > 0
    np.testing.assert_allclose(numeric["weight"], layer.weight.grad, atol=1e-6)
    check_module_gradients(layer, loss, x, y)


@pytest.mark.parametrize("storage", ["c", "transposed"])
def test_input_gradient_reaches_any_input_layout(storage):
    rng = np.random.default_rng(1)
    layer = Linear(4, 2, rng=rng)
    x = rng.normal(size=(3, 4))
    if storage == "transposed":
        x = transposed_storage(x)
    y = rng.normal(size=(3, 2))
    loss = MSELoss()
    loss(layer(x), y)
    analytic = layer.backward(loss.backward())
    numeric = numerical_input_grad(layer, loss, x, y)
    np.testing.assert_allclose(numeric, analytic, atol=1e-6)
