"""Rolling SLO / health aggregation over request latencies.

:class:`SloTracker` consumes the ``(duration, outcome)`` stream that
``obs.request`` scopes emit and answers the serving questions: what
fraction of recent requests were *good* (finished within the latency
objective with an ``ok`` verdict), where are the latency percentiles,
and how fast is the error budget burning.

Definitions (DESIGN.md §9):

* A request is **good** iff its outcome is in :data:`GOOD_OUTCOMES`
  (``ok``, or ``client_error`` — a well-formed rejection of a bad
  request is the service doing its job, not a service failure) *and*
  its latency is within ``objective_ms``. Degraded and errored
  requests spend budget even when they were fast — a degraded answer
  is not the product.
* **attainment** = good / total over the rolling window (NaN with no
  data — see :meth:`repro.obs.metrics.Histogram.quantile` for the same
  contract).
* **burn_rate** = (1 - attainment) / error_budget: 1.0 means failures
  arrive exactly at the budgeted rate; above 1.0 the budget depletes.

The window is a ring buffer (default 2048 requests) so a long-lived
serving process holds bounded state, mirroring the event/span caps.
:meth:`SloTracker.record` keeps the good and per-outcome tallies
current, so :meth:`~SloTracker.burn_rate` and
:meth:`~SloTracker.attainment` cost O(1) whatever the window length;
only :meth:`~SloTracker.snapshot` walks the window, for percentiles.
"""

from __future__ import annotations

import math
import threading
from collections import deque

import numpy as np

__all__ = ["SloTracker", "tracker", "health_level", "GOOD_OUTCOMES"]

_GOOD_OUTCOME = "ok"

#: Outcomes that spend no error budget. ``client_error`` is a handled
#: 4xx: the caller's fault, answered correctly — without this class,
#: one misbehaving client replaying bad requests would drive the burn
#: rate past the shed threshold and take down service for every tenant.
GOOD_OUTCOMES = frozenset({"ok", "client_error"})


def health_level(snapshot: dict) -> str:
    """Collapse an SLO snapshot to ``ok`` / ``degraded`` / ``critical``.

    No data is not an outage (``ok``); a breached objective is
    ``degraded``; burning the error budget at 2x or faster — the point
    where a fast-burn page would fire — is ``critical``. This is the
    SLO input to :meth:`repro.app.session.DeviceScope.health`'s
    top-level ``status``.
    """
    if not snapshot.get("count", 0):
        return "ok"
    if snapshot.get("healthy", True):
        return "ok"
    burn = snapshot.get("burn_rate", 0.0)
    if isinstance(burn, float) and math.isnan(burn):
        return "ok"
    return "critical" if burn >= 2.0 else "degraded"


class SloTracker:
    """Rolling-window request health aggregation."""

    def __init__(
        self,
        objective_ms: float = 250.0,
        error_budget: float = 0.01,
        window: int = 2048,
    ):
        if objective_ms <= 0:
            raise ValueError("objective_ms must be positive")
        if not 0.0 < error_budget < 1.0:
            raise ValueError("error_budget must be in (0, 1)")
        if window < 1:
            raise ValueError("window must be >= 1")
        self._objective_ms = float(objective_ms)
        self.error_budget = float(error_budget)
        self.window = int(window)
        self._lock = threading.Lock()
        # (duration_ms, outcome) per completed request, newest last.
        self._requests: deque[tuple[float, str]] = deque(maxlen=self.window)
        # Tallies over ``_requests``, kept current by record(): the good
        # requests, and the requests per outcome (no zero entries).
        self._good = 0
        self._outcomes: dict[str, int] = {}

    @property
    def objective_ms(self) -> float:
        return self._objective_ms

    @objective_ms.setter
    def objective_ms(self, value: float) -> None:
        """Move the objective; recounts the good tally over the window."""
        value = float(value)
        with self._lock:
            self._objective_ms = value
            self._good = sum(
                1
                for ms, outcome in self._requests
                if outcome in GOOD_OUTCOMES and ms <= value
            )

    def record(self, duration_s: float, outcome: str = _GOOD_OUTCOME) -> None:
        """Ingest one completed request, evicting the oldest if full."""
        ms, outcome = float(duration_s) * 1e3, str(outcome)
        with self._lock:
            if len(self._requests) == self._requests.maxlen:
                old_ms, old_outcome = self._requests[0]
                self._tally(old_ms, old_outcome, -1)
            self._requests.append((ms, outcome))
            self._tally(ms, outcome, 1)

    def _tally(self, ms: float, outcome: str, delta: int) -> None:
        # Caller holds the lock.
        if outcome in GOOD_OUTCOMES and ms <= self._objective_ms:
            self._good += delta
        count = self._outcomes.get(outcome, 0) + delta
        if count:
            self._outcomes[outcome] = count
        else:
            del self._outcomes[outcome]

    def __len__(self) -> int:
        with self._lock:
            return len(self._requests)

    def burn_rate(self) -> tuple[float, int]:
        """``(burn_rate, count)`` over the window, in O(1).

        The same burn rate :meth:`snapshot` reports (NaN with no data),
        read from the tallies without touching the window — the
        admission controller asks this on every request.
        """
        with self._lock:
            count, good = len(self._requests), self._good
        if count == 0:
            return float("nan"), 0
        return (1.0 - good / count) / self.error_budget, count

    def snapshot(self) -> dict:
        """Plain-dict health rollup (JSON-serializable).

        With no recorded requests, ``attainment``/percentiles/
        ``burn_rate`` are NaN and ``healthy`` is True — no data is not
        an outage.
        """
        with self._lock:
            requests = list(self._requests)
            good = self._good
            tallies = dict(self._outcomes)
            objective_ms = self._objective_ms
        count = len(requests)
        if count == 0:
            nan = float("nan")
            return {
                "count": 0,
                "objective_ms": objective_ms,
                "error_budget": self.error_budget,
                "window": self.window,
                "attainment": nan,
                "p50_ms": nan,
                "p95_ms": nan,
                "p99_ms": nan,
                "burn_rate": nan,
                "outcomes": {},
                "healthy": True,
            }
        durations, names = zip(*requests)
        # Outcomes in order of first appearance in the window.
        outcomes = {name: tallies[name] for name in dict.fromkeys(names)}
        attainment = good / count
        burn_rate = (1.0 - attainment) / self.error_budget
        p50, p95, p99 = np.percentile(
            np.asarray(durations, dtype=np.float64), [50.0, 95.0, 99.0]
        )
        return {
            "count": count,
            "objective_ms": objective_ms,
            "error_budget": self.error_budget,
            "window": self.window,
            "attainment": attainment,
            "p50_ms": float(p50),
            "p95_ms": float(p95),
            "p99_ms": float(p99),
            "burn_rate": burn_rate,
            "outcomes": outcomes,
            "healthy": attainment >= 1.0 - self.error_budget,
        }

    def attainment(self) -> float:
        """``snapshot()["attainment"]`` from the tallies, in O(1)."""
        with self._lock:
            count, good = len(self._requests), self._good
        return good / count if count else float("nan")

    def reset(self) -> None:
        with self._lock:
            self._requests.clear()
            self._good = 0
            self._outcomes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        snap = self.snapshot()
        att = snap["attainment"]
        shown = "n/a" if isinstance(att, float) and math.isnan(att) else f"{att:.3f}"
        return (
            f"SloTracker(objective_ms={self.objective_ms}, "
            f"count={snap['count']}, attainment={shown})"
        )


#: Process-wide tracker fed by ``obs.request`` scopes.
tracker = SloTracker()
