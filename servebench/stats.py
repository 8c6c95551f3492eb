"""Latency summaries: the median and a tail percentile with its support.

A tail percentile is only reported when the sample leaves at least
``MIN_BEYOND`` observations above it; with fewer, the number is one or
two outliers and says nothing about the tail. The count beyond the
percentile is returned with the value so every result states its
support.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

__all__ = ["MIN_BEYOND", "TailPercentile", "nearest_rank", "tail_percentile", "median"]

#: Samples that must lie above a reported tail percentile.
MIN_BEYOND = 10


class TailPercentile(NamedTuple):
    """A nearest-rank percentile with its support."""

    value: float
    n_beyond: int  # samples ranked above the percentile
    n: int

    @property
    def supported(self) -> bool:
        return self.n_beyond >= MIN_BEYOND


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of the ``q`` quantile (``0 < q <= 1``) in ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if n < 1:
        raise ValueError("need at least one sample")
    # round() absorbs binary noise in q * n (0.95 * 200 = 190.00000000000003).
    return max(1, math.ceil(round(q * n, 9)))


def tail_percentile(values, q: float = 0.95) -> TailPercentile:
    """Nearest-rank ``q`` percentile and the number of samples beyond it.

    ``n_beyond`` counts the ranks above the percentile's rank, so a
    p95 is supported (``n_beyond >= MIN_BEYOND``) from 200 samples on.
    """
    ordered = sorted(values)
    rank = nearest_rank(q, len(ordered))
    return TailPercentile(ordered[rank - 1], len(ordered) - rank, len(ordered))


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))
