"""Elementwise activation layer."""

from __future__ import annotations

import numpy as np

from .module import Module, is_inference

__all__ = ["ReLU"]


class ReLU(Module):
    """Rectified linear unit activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if not is_inference():
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * self._mask
        self._mask = None
        return grad
