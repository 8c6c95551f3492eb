"""Gradient-descent optimizers operating on :class:`Parameter` lists."""

from __future__ import annotations

import numpy as np

from .parameter import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm", "global_grad_norm"]


def global_grad_norm(parameters: list[Parameter]) -> float:
    """Global L2 norm of all trainable gradients (no mutation)."""
    total = 0.0
    for param in parameters:
        if param.requires_grad:
            total += float(np.sum(param.grad**2))
    return float(np.sqrt(total))


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(parameters)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in parameters:
            if param.requires_grad:
                param.grad *= scale
    return norm


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, vel in zip(self.parameters, self._velocity):
            if not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                if self.nesterov:
                    grad = grad + self.momentum * vel
                else:
                    grad = vel
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
