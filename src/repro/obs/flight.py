"""Tail-sampling flight recorder: complete span trees for the traces
that matter.

The tracer keeps no span store: each request's root spans go to its
``RequestContext.roots`` (and to a ``Tracer.capture()`` block, when a
caller opened one). Keeping every tree would be the wrong shape for an
incident at serving scale anyway — thousands of healthy traces crowd
out the three that explain the outage. The flight recorder is the
**retention policy** over those trees, not a second store —
**tail-based retention** decides *after* a request completes whether
its trace is worth keeping:

* ``error`` / ``degraded`` / ``shed`` outcomes are **always** retained;
* requests at or above the rolling p90 duration (and strictly above the
  fastest recent request — a uniform-latency load must not read as 100%
  slow) are retained as ``slow``, the slowest decile of recent traffic;
* everything else is probabilistically sampled (deterministic seeded
  RNG) so the ring also holds a baseline of healthy traces to diff
  against.

Only a kept request's trees are serialized (once, into the entry's
``spans``). Retention is bounded twice — by entry count and by
estimated JSON bytes — and eviction is tiered: ``sampled`` entries go
first, then ``slow``, then oldest-of-anything, so an incident's error
traces are the last thing squeezed out.

Entries whose outcome is in the always-keep class are additionally
dumped to the installed :class:`~repro.obs.store.TelemetryStore` (PR 6)
best-effort, so a crash right after the bad request still leaves the
trace on disk.

Wiring: :meth:`Tracer._close` appends each request's root spans to its
``RequestContext.roots``; :func:`repro.obs.context.complete` hands every
request's completion record and those roots to
:meth:`FlightRecorder.finish_request` — the one entry, for served
requests and refusals alike — whenever observability is enabled.
"""

from __future__ import annotations

import bisect
import json
import random
import threading
from collections import deque

__all__ = ["FlightRecorder", "recorder"]

#: Outcomes that are always retained (and dumped to the store).
KEEP_OUTCOMES = frozenset({"error", "degraded", "shed"})


class FlightRecorder:
    """Bounded ring of complete request traces with tail-based retention."""

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int = 8 * 1024 * 1024,
        sample_rate: float = 0.05,
        slow_window: int = 512,
        slow_quantile: float = 0.9,
        seed: int = 0,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.sample_rate = float(sample_rate)
        self.slow_quantile = float(slow_quantile)
        self._seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque()
        self._bytes = 0
        #: Rolling durations of recent *served* requests, in arrival
        #: order and kept sorted — the p90 of this window is the "slow"
        #: retention threshold, read off the sorted copy without a sort.
        self._durations: deque[float] = deque(maxlen=slow_window)
        self._sorted_durations: list[float] = []
        # Counters (exposed via stats(), not the metrics registry, so
        # the recorder stays usable even while metrics are cleared).
        self._seen = 0
        self._kept = 0
        self._evicted = 0
        self._store_failures = 0

    # -- ingest ------------------------------------------------------------

    def finish_request(self, record, roots=()) -> None:
        """Apply retention to a :class:`~repro.obs.context.Completion`,
        serializing its root trees only if kept. Only admitted requests
        enter the duration window or the ``slow`` tier: a refusal's
        near-zero time would drag the fastest-recent floor below every
        served request."""
        outcome, duration_s = record.outcome, record.duration_s
        with self._lock:
            self._seen += 1
            threshold = self._slow_threshold_locked() if record.admitted else None
            if outcome in KEEP_OUTCOMES:
                reason = outcome
            # "Slow" must also beat the *fastest* recent request: when
            # every request takes the same time the p90 equals that
            # time, and without the floor a uniform-latency load would
            # read as 100% slow and flood the ring.
            elif (
                threshold is not None
                and duration_s >= threshold
                and duration_s > self._sorted_durations[0]
            ):
                reason = "slow"
            elif self._rng.random() < self.sample_rate:
                reason = "sampled"
            else:
                reason = None
            if record.admitted:
                self._record_duration_locked(duration_s)
            if reason is None:
                return
            entry = {
                "request_id": record.request_id,
                "trace_id": record.trace_id,
                "kind": record.kind,
                "outcome": outcome,
                "duration_s": duration_s,
                "tags": record.labels(),
                "reason": reason,
                "spans": [root.to_dict() for root in roots],
            }
            self._retain_locked(entry)
        if outcome in KEEP_OUTCOMES:
            self._dump_to_store(entry)

    # -- retention mechanics ----------------------------------------------

    def _slow_threshold_locked(self) -> "float | None":
        """Rolling p90 duration, or None until enough history exists."""
        n = len(self._durations)
        if n < 20:
            return None
        idx = min(n - 1, int(self.slow_quantile * n))
        return self._sorted_durations[idx]

    def _record_duration_locked(self, duration_s: float) -> None:
        window = self._durations
        if len(window) == window.maxlen:
            oldest = window[0]
            del self._sorted_durations[
                bisect.bisect_left(self._sorted_durations, oldest)
            ]
        window.append(duration_s)
        bisect.insort(self._sorted_durations, duration_s)

    def _retain_locked(self, entry: dict) -> None:
        entry["bytes"] = len(json.dumps(entry, default=str))
        self._entries.append(entry)
        self._bytes += entry["bytes"]
        self._kept += 1
        self._evict_locked()

    def _evict_locked(self) -> None:
        """Tiered eviction: sampled first, then slow, then oldest."""
        count = len(self._entries)

        def over() -> bool:
            return count > self.max_entries or self._bytes > self.max_bytes

        for tier in ("sampled", "slow"):
            if not over():
                return
            survivors: deque[dict] = deque()
            # Walk oldest-first, dropping this tier until under bounds.
            for item in self._entries:
                if over() and item["reason"] == tier:
                    self._bytes -= item["bytes"]
                    self._evicted += 1
                    count -= 1
                    continue
                survivors.append(item)
            self._entries = survivors
        while over() and self._entries:
            dropped = self._entries.popleft()
            self._bytes -= dropped["bytes"]
            self._evicted += 1
            count -= 1

    def _dump_to_store(self, entry: dict) -> None:
        """Best-effort persistence of an always-keep trace (PR 6 store)."""
        from . import store as store_mod

        telemetry_store = store_mod.active_store()
        if telemetry_store is None:
            return
        try:
            telemetry_store.append({"type": "flight", **entry})
        except OSError:
            with self._lock:
                self._store_failures += 1

    # -- retrieval / export -----------------------------------------------

    def entries(self) -> list[dict]:
        """Retained traces, oldest first (copies of the ring entries)."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def stats(self) -> dict:
        with self._lock:
            by_reason: dict[str, int] = {}
            for entry in self._entries:
                by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "seen": self._seen,
                "kept": self._kept,
                "evicted": self._evicted,
                "store_failures": self._store_failures,
                "by_reason": by_reason,
                "slow_threshold_s": self._slow_threshold_locked(),
            }

    def to_chrome_trace(self) -> dict:
        """Chrome-trace document over every retained trace's spans."""
        from . import export

        spans: list[dict] = []
        for entry in self.entries():
            spans.extend(entry["spans"])
        return export.to_chrome_trace(spans)

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._durations.clear()
            self._sorted_durations.clear()
            self._bytes = 0
            self._seen = 0
            self._kept = 0
            self._evicted = 0
            self._store_failures = 0
            self._rng = random.Random(self._seed)


#: Process-wide recorder (``obs.flight_recorder``); ``obs.reset`` resets it.
recorder = FlightRecorder()
