"""Result memoization for interactive inference.

DeviceScope's Playground re-renders the *same* window constantly: Prev /
Next navigation revisits positions, toggling an appliance re-requests the
others, and the Streamlit front-end re-runs its script top to bottom on
every widget event. :class:`ResultCache` is a small thread-safe LRU that
keys localization results on the **model fingerprint plus a digest of the
window bytes**, so revisits render without touching the ensemble.

Invalidation rules (also documented in DESIGN.md §7 "Inference path"):

* The key must include the model's identity/config — use
  :meth:`repro.core.CamAL.fingerprint`, which covers model swaps,
  calibration, and pruning. The window bytes alone are NOT a valid key.
* Retraining an ensemble **in place** is invisible to the fingerprint;
  call :meth:`ResultCache.clear` after any in-place weight mutation.

Hit/miss totals are exported through :mod:`repro.obs` (counters
``app.result_cache_hits_total`` / ``app.result_cache_misses_total``,
labelled by cache name) whenever observability is enabled; local counters
are always maintained for tests and the app's diagnostics pane.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

from .. import obs

__all__ = ["ResultCache", "live_window_key", "window_key"]


def window_key(
    appliance: str, watts: np.ndarray, fingerprint: Hashable = ()
) -> tuple:
    """Cache key for one appliance × model × window combination.

    The window enters as a blake2b digest of its raw bytes (plus shape,
    so transposed/reshaped views of the same buffer never collide), which
    keeps keys small regardless of window length.
    """
    watts = np.ascontiguousarray(watts)
    digest = hashlib.blake2b(watts.tobytes(), digest_size=16).hexdigest()
    return (appliance, fingerprint, watts.shape, str(watts.dtype), digest)


def live_window_key(
    appliance: str,
    fingerprint: Hashable,
    store_uid: int,
    epoch: int,
    window: int,
) -> tuple:
    """Cache key for a *live* (tail-of-stream) localization.

    Live windows are addressed by **store identity + append epoch**, not
    by content digest: the window a ``GET .../live_localize`` analyzes
    is "the most recent samples of this store", and that referent moves
    with every append. Keying on the digest of the *current* tail alone
    would replay a stale result after appends shift the buffer whenever
    the key tuple is reused (stale-window poisoning); keying on
    ``(store_uid, epoch)`` makes every append a distinct key, and the
    process-unique ``store_uid`` keeps a deleted-then-recreated house
    from aliasing its predecessor's entries even at equal epochs. See
    :attr:`repro.stream.LiveStore.epoch`.
    """
    return (
        "live",
        appliance,
        fingerprint,
        int(store_uid),
        int(epoch),
        int(window),
    )


class _InFlight:
    """One in-progress computation that concurrent waiters can join."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class ResultCache:
    """Thread-safe LRU cache with obs-exported hit/miss counters.

    Values are returned by reference — a hit yields the *same* object
    that was stored, which is exactly what the app wants (rendered
    arrays are read-only by convention).
    """

    def __init__(self, maxsize: int = 128, name: str = "result_cache"):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.rejected = 0  # computed values refused storage by cache_if
        self.single_flight = 0  # lookups that joined an in-flight compute
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    _MISS = object()

    def get(self, key: Hashable, default=None):
        """Look up ``key``, recording a hit or miss."""
        with self._lock:
            value = self._entries.get(key, self._MISS)
            if value is self._MISS:
                self.misses += 1
                hit = False
                value = default
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        self._record(hit)
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh ``key``, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], object],
        cache_if: Callable[[object], bool] | None = None,
    ):
        """Return the cached value for ``key`` or compute-and-store it.

        ``compute`` runs outside the lock, so a slow localization does
        not serialize unrelated lookups. Concurrent misses on the same
        key are **single-flight**: the first caller (the leader)
        computes, later callers block on its in-flight result and reuse
        it — counted under ``single_flight`` — instead of recomputing.
        If the leader's ``compute`` raises, each waiter retries the
        lookup (and may become the next leader) rather than inheriting
        the failure.

        ``cache_if`` gates storage: when it returns False for the
        computed value, the value is returned (and shared with any
        waiters — they requested the identical computation) but **not**
        stored, counted under ``rejected``. The app uses this to keep
        results of degraded/failed computations out of the cache — a
        transient fault must not be replayed forever as a cache hit. A
        ``compute`` that raises stores nothing either: the exception
        propagates and the key stays absent.
        """
        while True:
            leader = False
            with self._lock:
                value = self._entries.get(key, self._MISS)
                if value is not self._MISS:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    flight = None
                else:
                    flight = self._inflight.get(key)
                    if flight is None:
                        flight = _InFlight()
                        self._inflight[key] = flight
                        leader = True
                        self.misses += 1
                    else:
                        self.single_flight += 1
            if flight is None:
                self._record(True)
                return value
            if not leader:
                self._record_join()
                flight.event.wait()
                if flight.error is not None:
                    continue
                return flight.value
            self._record(False)
            try:
                value = compute()
            except BaseException as exc:
                flight.error = exc
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            flight.value = value
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            if cache_if is not None and not cache_if(value):
                with self._lock:
                    self.rejected += 1
                if obs.enabled():
                    obs.registry.counter(
                        "app.result_cache_rejected_total",
                        help="computed values refused storage (degraded/failed)",
                    ).inc(cache=self.name)
                return value
            self.put(key, value)
            return value

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Plain-dict snapshot for reports and the app's diagnostics."""
        with self._lock:
            return {
                "name": self.name,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "rejected": self.rejected,
                "single_flight": self.single_flight,
                "hit_rate": self.hits / max(self.hits + self.misses, 1),
            }

    def _record(self, hit: bool) -> None:
        if not obs.enabled():
            return
        name = (
            "app.result_cache_hits_total"
            if hit
            else "app.result_cache_misses_total"
        )
        help_text = (
            "result-cache lookups served from memory"
            if hit
            else "result-cache lookups that recomputed"
        )
        obs.registry.counter(name, help=help_text).inc(cache=self.name)
        # Event-level attribution: inside an ``obs.request`` scope the
        # record carries the request id, so a trace viewer can tell
        # which click was served from memory and which recomputed.
        obs.log.event(
            "app.result_cache",
            cache=self.name,
            outcome="hit" if hit else "miss",
        )

    def _record_join(self) -> None:
        if not obs.enabled():
            return
        obs.registry.counter(
            "app.result_cache_single_flight_total",
            help="result-cache lookups that joined an in-flight compute",
        ).inc(cache=self.name)
        obs.log.event(
            "app.result_cache",
            cache=self.name,
            outcome="single_flight",
        )
