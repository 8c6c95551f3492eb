"""Cross-request micro-batching: many windows, one ensemble sweep.

The PR 7 serving layer ran every detect/localize request as a batch of
one — ``localize_watts(window[None, :])`` under the per-model sweep
lock — so concurrent tenants asking about the same appliance fully
serialized, each paying the full fixed cost of an ensemble sweep.

:class:`MicroBatcher` coalesces concurrent requests instead. Requests
are grouped per ``(appliance, model fingerprint, window length)``; the
first arrival becomes the batch **leader** and — unless its appliance
is idle (below) — waits a bounded window (``batch_window_ms``) for
followers, or until ``batch_max`` rows are queued, whichever comes
first. The leader then stacks the windows into one ``(B, L)`` array,
runs a *single* ``localize_watts`` sweep under the sweep lock, and
scatters per-row results back to the waiting handler threads via
:meth:`~repro.core.CamALResult.split`.

Correctness rests on the engine's batch-invariance contract
(DESIGN.md §12): a sweep over B stacked windows is **bit-identical** to
B independent sweeps, including per-row repair/degrade verdicts — so
callers cannot tell whether they were batched, and per-row cache rules
(degraded rows are never cached) keep working unchanged.

Fallback semantics: requests that cannot batch simply run as today's
batch-of-one sweep — a window whose length matches no concurrent
request forms its own group and times out alone, an idle leader sweeps
at once without waiting, and a disabled batcher (``batch_max <= 1`` or
``batch_window_ms <= 0``) short-circuits to the direct path. Each
one-window sweep is counted under ``serve.batch.fallback_total``.

Arrival awareness: the leader only waits when a follower can come. The
batcher stamps each appliance with its latest activity — the later of
its last arrival and its last sweep end. A new leader on an appliance
that has been seen before but has had no activity for a whole window
sweeps at once (counted as ``idle_leaders``): nobody is queued behind
it, and nobody was just answered who could come back. A never-seen
appliance still waits, and a closed-loop population keeps coalescing,
because its callers return within a window of their sweep's end. The
stamps are keyed by appliance alone, so their number is bounded by the
model bank, never by client-chosen window lengths.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .. import obs
from .tenancy import bill_work

__all__ = ["MicroBatcher", "DEFAULT_BATCH_WINDOW_MS", "DEFAULT_BATCH_MAX"]

#: Default coalescing window. A few milliseconds is enough to collect
#: concurrently-arriving requests (the sweep itself costs more than
#: this) while staying far below any interactive latency budget.
DEFAULT_BATCH_WINDOW_MS = 4.0

#: Default cap on rows per sweep; bounds both queue growth and the
#: worst-case latency of the last row to join.
DEFAULT_BATCH_MAX = 16

#: Histogram edges for ``serve.batch.size``.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class _Pending:
    """One caller's window, and the slot its row result lands in."""

    __slots__ = ("window", "result", "error", "cost_ms")

    def __init__(self, window: np.ndarray):
        self.window = window
        self.result = None
        self.error: BaseException | None = None
        #: This row's CPU-ms share of the stacked sweep (leader-set).
        self.cost_ms = 0.0


class _Batch:
    """A forming batch: rows accumulate until closed by fill or timeout."""

    __slots__ = ("rows", "closed", "full", "done")

    def __init__(self, first: _Pending):
        self.rows: list[_Pending] = [first]
        self.closed = False
        self.full = threading.Event()  # leader wake-up: batch_max reached
        self.done = threading.Event()  # follower wake-up: results scattered


class MicroBatcher:
    """Coalesce concurrent single-window sweeps into stacked sweeps.

    Thread-safe; one instance serves every appliance (grouping happens
    per appliance × model fingerprint × window length internally).
    """

    def __init__(
        self,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        batch_max: int = DEFAULT_BATCH_MAX,
    ):
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.batch_window_ms = float(batch_window_ms)
        self.batch_max = int(batch_max)
        self._window_s = self.batch_window_ms / 1e3
        self._lock = threading.Lock()
        self._forming: dict[tuple, _Batch] = {}
        # appliance -> monotonic time of its latest arrival or sweep end.
        self._activity: dict[str, float] = {}
        # Lifetime stats (under _lock); mirrored to obs when enabled.
        self._batches = 0
        self._windows = 0
        self._coalesced = 0
        self._fallback = 0
        self._max_size = 0
        self._idle_leaders = 0

    @property
    def enabled(self) -> bool:
        return self.batch_max > 1 and self.batch_window_ms > 0

    # -- the one public operation ------------------------------------------

    def localize(
        self,
        appliance: str,
        model,
        sweep_lock: threading.Lock,
        window: np.ndarray,
    ):
        """One window in, one single-row :class:`CamALResult` out.

        Bit-identical to ``model.localize_watts(window[None, :])`` under
        ``sweep_lock`` — the caller cannot observe whether its window
        was swept alone or as a row of a coalesced batch.
        """
        if not self.enabled:
            with sweep_lock:
                result = model.localize_watts(
                    window[None, :], appliance=appliance
                )
            # Sweep ran inline on the caller's thread: the handler's own
            # CPU delta already covers it, so bill only the window count.
            bill_work(windows=1)
            self._account(1, fallback=True)
            return result
        key = (appliance, model.fingerprint(), int(window.shape[0]))
        pending = _Pending(window)
        with self._lock:
            now = time.monotonic()
            last = self._activity.get(appliance)
            self._activity[appliance] = now
            batch = self._forming.get(key)
            if batch is None:
                batch = _Batch(pending)
                self._forming[key] = batch
                leader = True
                if last is not None and now - last >= self._window_s:
                    # Idle appliance: no follower can come, so don't
                    # wait for one.
                    self._idle_leaders += 1
                    batch.full.set()
            else:
                leader = False
                batch.rows.append(pending)
                if len(batch.rows) >= self.batch_max:
                    batch.closed = True
                    del self._forming[key]
                    batch.full.set()
        if leader:
            result = self._lead(
                key, batch, pending, appliance, model, sweep_lock
            )
        else:
            batch.done.wait()
            if pending.error is not None:
                raise pending.error
            result = pending.result
        # Each row bills its fair share of the stacked sweep on its own
        # handler thread, where service.execute settles the request bill.
        bill_work(cpu_share_ms=pending.cost_ms, windows=1)
        return result

    # -- internals ---------------------------------------------------------

    def _lead(self, key, batch, pending, appliance, model, sweep_lock):
        # Wakes on fill, at once for an idle leader (full preset), or
        # when the window runs out.
        batch.full.wait(timeout=self._window_s)
        with self._lock:
            batch.closed = True
            if self._forming.get(key) is batch:
                del self._forming[key]
        rows = batch.rows
        try:
            stacked = np.stack([p.window for p in rows])
            with obs.span("serve.batch_sweep", size=len(rows)) as sweep_span:
                cpu0 = time.thread_time()
                with sweep_lock:
                    result = model.localize_watts(stacked, appliance=appliance)
                sweep_cpu_ms = (time.thread_time() - cpu0) * 1e3
                sweep_span.set(cpu_ms=sweep_cpu_ms)
            # The whole-batch sweep ran on this (leader) thread but
            # belongs to all rows equally: subtract it from the leader's
            # raw CPU delta and hand each row a 1/B share.
            share_ms = sweep_cpu_ms / len(rows)
            for p in rows:
                p.cost_ms = share_ms
            bill_work(cpu_inline_ms=sweep_cpu_ms)
            for p, row_result in zip(rows, result.split()):
                p.result = row_result
        except BaseException as exc:
            for p in rows:
                p.error = exc
            raise
        finally:
            # Stamp the sweep end before waking the followers: a caller
            # that was just answered and comes straight back must find
            # the appliance active, or it would lead a batch alone.
            with self._lock:
                self._activity[appliance] = time.monotonic()
            batch.done.set()
            self._account(len(rows), fallback=len(rows) == 1)
        return pending.result

    def _account(self, size: int, fallback: bool) -> None:
        with self._lock:
            self._batches += 1
            self._windows += size
            if size > 1:
                self._coalesced += size
            if fallback:
                self._fallback += 1
            if size > self._max_size:
                self._max_size = size
        if not obs.enabled():
            return
        registry = obs.registry
        registry.histogram(
            "serve.batch.size",
            help="windows per ensemble sweep in the serve micro-batcher",
            buckets=BATCH_SIZE_BUCKETS,
        ).observe(float(size))
        if size > 1:
            registry.counter(
                "serve.batch.coalesced_total",
                help="windows served from multi-window coalesced sweeps",
            ).inc(size)
        if fallback:
            registry.counter(
                "serve.batch.fallback_total",
                help="sweeps that ran a single window (timeout alone, "
                "idle appliance, unmatched length, or batching disabled)",
            ).inc()
        registry.gauge(
            "serve.batch.occupancy",
            help="fill fraction (size / batch_max) of the latest sweep",
        ).set(size / max(self.batch_max, 1))

    def stats(self) -> dict:
        """Plain-dict snapshot for ``/health`` and the obs dashboard.

        ``idle_leaders`` (leaders that swept at once on an idle
        appliance) is present only when batching is enabled: a disabled
        batcher has no leaders.
        """
        with self._lock:
            batches = self._batches
            windows = self._windows
            snapshot = {
                "enabled": self.enabled,
                "batch_window_ms": self.batch_window_ms,
                "batch_max": self.batch_max,
                "batches": batches,
                "windows": windows,
                "coalesced": self._coalesced,
                "fallback": self._fallback,
                "max_batch_size": self._max_size,
                "avg_batch_size": windows / batches if batches else 0.0,
                "occupancy": (
                    windows / (batches * self.batch_max) if batches else 0.0
                ),
            }
            if self.enabled:
                snapshot["idle_leaders"] = self._idle_leaders
            return snapshot
