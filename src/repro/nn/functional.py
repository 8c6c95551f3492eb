"""Stateless numerical primitives shared across layers and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "softmax",
    "log_softmax",
    "relu",
    "one_hot",
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
