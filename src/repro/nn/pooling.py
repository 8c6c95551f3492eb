"""Pooling and resampling layers for ``(N, C, L)`` signals."""

from __future__ import annotations

import numpy as np

from .module import Module, is_inference

__all__ = ["GlobalAvgPool1d", "MaxPool1d", "Upsample1d", "Flatten"]


class GlobalAvgPool1d(Module):
    """Average over the time axis: ``(N, C, L) -> (N, C)``.

    This is the GAP layer of the TSC ResNet; CAM extraction exploits that
    the logit for class ``c`` is a GAP-weighted sum of the final feature
    maps, so the same linear weights localize evidence in time.
    """

    def __init__(self) -> None:
        super().__init__()
        self._length: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"expected (N, C, L) input, got shape {x.shape}")
        if not is_inference():
            self._length = x.shape[2]
        # ``mean(axis=2)`` yields a reduce-transposed (non-C-contiguous)
        # result; normalize the layout so downstream contractions (the
        # classifier head) see the same memory order whether they get
        # this batch or a slice of it — part of the batch-invariance
        # contract (DESIGN.md §12).
        return np.ascontiguousarray(x.mean(axis=2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._length is None:
            raise RuntimeError("backward called before forward")
        length = self._length
        self._length = None
        return np.repeat(grad_output[:, :, None] / length, length, axis=2)


class MaxPool1d(Module):
    """Non-overlapping max pooling with ``kernel_size == stride``.

    Trailing timesteps that do not fill a window are dropped (floor mode),
    matching the common encoder convention in NILM autoencoders.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"expected (N, C, L) input, got shape {x.shape}")
        n, c, length = x.shape
        l_out = length // self.kernel_size
        if l_out == 0:
            raise ValueError(
                f"input length {length} shorter than pool size {self.kernel_size}"
            )
        trimmed = x[:, :, : l_out * self.kernel_size]
        windows = trimmed.reshape(n, c, l_out, self.kernel_size)
        if not is_inference():
            # argmax exists solely to route gradients — skip it entirely
            # under inference_mode.
            self._cache = (windows.argmax(axis=3), x.shape, l_out)
        return windows.max(axis=3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        argmax, in_shape, l_out = self._cache
        self._cache = None
        n, c, length = in_shape
        dwindows = np.zeros((n, c, l_out, self.kernel_size), dtype=np.float64)
        ni, ci, li = np.ogrid[:n, :c, :l_out]
        dwindows[ni, ci, li, argmax] = grad_output
        dx = np.zeros(in_shape, dtype=np.float64)
        dx[:, :, : l_out * self.kernel_size] = dwindows.reshape(n, c, -1)
        return dx


class Upsample1d(Module):
    """Nearest-neighbour upsampling by an integer factor along time."""

    def __init__(self, scale_factor: int) -> None:
        super().__init__()
        if scale_factor < 1:
            raise ValueError("scale_factor must be >= 1")
        self.scale_factor = scale_factor
        self._in_length: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"expected (N, C, L) input, got shape {x.shape}")
        if not is_inference():
            self._in_length = x.shape[2]
        return np.repeat(x, self.scale_factor, axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_length is None:
            raise RuntimeError("backward called before forward")
        in_length = self._in_length
        self._in_length = None
        n, c, l_out = grad_output.shape
        return grad_output.reshape(n, c, in_length, self.scale_factor).sum(axis=3)


class Flatten(Module):
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def __init__(self) -> None:
        super().__init__()
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not is_inference():
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward called before forward")
        in_shape = self._in_shape
        self._in_shape = None
        return grad_output.reshape(in_shape)
