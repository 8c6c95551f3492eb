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
        if not is_inference():
            self._mask = x > 0
        # One pass into a new array; fmax maps NaN to 0 as
        # where(x > 0, x, 0) did (-0.0 may survive; it equals 0).
        return np.fmax(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * self._mask
        self._mask = None
        return grad
