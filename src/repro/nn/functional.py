"""Stateless numerical primitives shared across layers and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "softmax",
    "log_softmax",
    "relu",
    "one_hot",
    "im2col1d",
    "col2im1d",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along ``axis`` (stable log-sum-exp form)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: elementwise ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to one-hot ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range for one-hot encoding")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def im2col1d(
    x: np.ndarray, kernel_size: int, stride: int, dilation: int = 1
) -> np.ndarray:
    """Extract (optionally dilated) sliding windows from a padded signal.

    Parameters
    ----------
    x:
        Array of shape ``(N, C, L_padded)``.
    dilation:
        Spacing between kernel taps; the window spans
        ``(K - 1) * dilation + 1`` samples.

    Returns
    -------
    Array of shape ``(N, C, L_out, K)`` where
    ``L_out = (L_padded - span) // stride + 1``.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    span = (kernel_size - 1) * dilation + 1
    n, c, length = x.shape
    # Built directly: ``sliding_window_view`` plus two slices costs ~3x
    # as much per call, and every Conv1d forward makes one.
    s_n, s_c, s_l = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, (length - span) // stride + 1, kernel_size),
        strides=(s_n, s_c, s_l * stride, s_l * dilation),
        writeable=False,
    )


def col2im1d(
    cols: np.ndarray,
    length: int,
    kernel_size: int,
    stride: int,
    dilation: int = 1,
) -> np.ndarray:
    """Scatter-add sliding-window gradients back onto the padded signal.

    Inverse (adjoint) of :func:`im2col1d`: ``cols`` has shape
    ``(N, C, L_out, K)`` and the result has shape ``(N, C, length)``.
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    n, c, l_out, k = cols.shape
    if k != kernel_size:
        raise ValueError(f"kernel mismatch: cols have K={k}, expected {kernel_size}")
    out = np.zeros((n, c, length), dtype=np.float64)
    # K is small (<=31 in this project); loop over kernel taps, vectorized
    # over batch/channel/time. Each tap writes a strided slice, so plain
    # slice-add is safe (no overlapping indices within one tap).
    for tap in range(kernel_size):
        offset = tap * dilation
        out[:, :, offset : offset + l_out * stride : stride] += cols[:, :, :, tap]
    return out
