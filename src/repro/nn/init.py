"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that
model construction is deterministic given a seed — a requirement for the
reproducibility guarantees in DESIGN.md §6.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_uniform", "glorot_uniform", "orthogonal"]


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Kaiming/He uniform init, suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def glorot_uniform(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Xavier/Glorot uniform init, suited to sigmoid/tanh gates."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan_in and fan_out must be positive")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal init for recurrent weight matrices."""
    rows, cols = shape
    a = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # make the decomposition unique
    if rows < cols:
        q = q.T
    return q[:rows, :cols]
