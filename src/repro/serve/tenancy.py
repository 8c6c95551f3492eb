"""Per-tenant session isolation for the serving layer.

One HTTP process serves many tenants; each tenant gets its own
:class:`TenantSession` — houses, attached devices, a private
:class:`~repro.core.ResultCache`, and a private
:class:`~repro.obs.SloTracker` — so one tenant's data, cache entries,
and latency history never leak into another's. Sessions live in a
:class:`TenantRegistry` whose bucket locks are **striped**: concurrent
requests for different tenants rarely contend on the same lock, and the
per-session state itself is guarded by the session's own lock.

Health consistency (the PR 7 regression fix): every registry created in
the process is tracked in a module-level set, and
:func:`tenant_trackers` exposes all live per-tenant SLO trackers.
:func:`repro.app.session.process_status` folds those trackers into the
same :func:`~repro.app.session.derive_status` the CLI prints — so
``/health``, ``devicescope obs --watch``, and ``devicescope faultcheck``
can never disagree about the process's health.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import deque

import numpy as np

from .. import obs
from ..core import ResultCache
from ..obs.slo import SloTracker
from ..stream import LiveStore

__all__ = [
    "MAX_HOUSE_SAMPLES",
    "MAX_HOUSES_PER_TENANT",
    "TenantHouse",
    "TenantSession",
    "TenantRegistry",
    "CostLedger",
    "bill_work",
    "consume_work",
    "tenant_trackers",
    "tenant_slo_snapshots",
]

#: Tenant ids are path/label-safe tokens (they appear in metrics labels
#: and log events — never arbitrary bytes).
_TENANT_ID = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Every live registry, for process-wide health aggregation.
_REGISTRIES: "weakref.WeakSet[TenantRegistry]" = weakref.WeakSet()

#: Per-house retention quota: the hard ceiling on samples one house may
#: accumulate across all ingests (the *per-request* cap lives in
#: :mod:`repro.serve.service`). 2M float64 samples ≈ 16 MiB, ~3.8 years
#: of one-minute readings.
MAX_HOUSE_SAMPLES = 2_000_000

#: Houses one tenant may hold at once.
MAX_HOUSES_PER_TENANT = 64


class TenantHouse:
    """One tenant-owned consumption series plus its attached devices.

    The serve-side analogue of :class:`repro.datasets.House`, grown by
    ingestion instead of simulation: ``aggregate`` starts empty (or from
    the creation payload) and ``ingest`` appends batches of watt
    readings, the ``shelly_pull``-style model of the exemplar energy
    analyzer. Devices are the appliances the tenant attached — only
    attached appliances can be detected/localized, mirroring the
    device-CRUD-then-analyze flow.

    Retention is bounded and streaming-native: the series lives in a
    quota-mode :class:`repro.stream.LiveStore` (amortized-doubling
    buffer up to ``max_samples``, never evicting — the quota raises
    instead), so every house ingest also advances the store's append
    epoch and can feed a :class:`repro.stream.SlidingCamAL` live
    session. ``live`` holds those per-appliance sessions; the service
    layer creates and invalidates them (DESIGN.md §13).
    """

    def __init__(
        self,
        house_id: str,
        step_s: float = 60.0,
        aggregate: np.ndarray | None = None,
        devices: dict[str, dict] | None = None,
        max_samples: int = MAX_HOUSE_SAMPLES,
    ):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.house_id = house_id
        self.step_s = step_s
        self.devices: dict[str, dict] = dict(devices or {})
        self.max_samples = int(max_samples)
        #: appliance → live SlidingCamAL session (service-managed).
        self.live: dict[str, object] = {}
        initial = np.asarray(
            np.empty(0, dtype=np.float64) if aggregate is None else aggregate,
            dtype=np.float64,
        )
        if initial.ndim != 1:
            raise ValueError("aggregate must be 1-D")
        if initial.size > self.max_samples:
            raise OverflowError(
                f"initial series ({initial.size} samples) exceeds the "
                f"{self.max_samples}-sample house quota"
            )
        self.store = LiveStore(
            capacity=self.max_samples, step_s=step_s, on_full="raise"
        )
        if initial.size:
            self.store.append(initial)

    @property
    def aggregate(self) -> np.ndarray:
        """The ingested series so far (a copy, oldest first)."""
        return self.store.snapshot()

    @property
    def n_steps(self) -> int:
        return self.store.total

    @property
    def epoch(self) -> tuple[int, int]:
        """``(store_uid, total)`` — keys live-window cache entries."""
        return self.store.epoch

    def ingest(self, watts: np.ndarray) -> int:
        """Append one batch of readings; returns the new length.

        Raises :class:`OverflowError`, appending nothing, when the batch
        would push the house past ``max_samples`` (the quota-mode store's
        capacity; the service maps this to a 413).
        """
        self.store.append(watts)
        return self.store.total

    def append(self, watts: np.ndarray, factor: int = 1) -> int:
        """Streaming ingest at a finer native rate.

        Block-mean resamples ``factor`` raw readings per stored sample
        (carrying the sub-block remainder between appends) and commits
        the result; returns the number of *resampled* samples committed.
        The same quota applies: a batch whose resampled length would
        exceed ``max_samples`` raises :class:`OverflowError` without
        mutating the store.
        """
        return self.store.append(watts, factor=factor)

    def read_window(self, start: int, length: int) -> np.ndarray:
        """One aggregate slice (always a copy), bounds-checked."""
        if start < 0 or length < 1:
            raise ValueError("start must be >= 0 and length >= 1")
        if start + length > self.n_steps:
            raise ValueError(
                f"window [{start}, {start + length}) exceeds the "
                f"{self.n_steps} ingested samples"
            )
        return self.store.read(start, length)

    def summary(self) -> dict:
        return {
            "house_id": self.house_id,
            "step_s": self.step_s,
            "n_steps": self.n_steps,
            "devices": sorted(self.devices),
        }


class TenantSession:
    """Everything one tenant owns inside the serving process."""

    def __init__(
        self,
        tenant_id: str,
        cache_size: int = 256,
        slo_objective_ms: float = 250.0,
        slo_window: int = 512,
        max_houses: int = MAX_HOUSES_PER_TENANT,
    ):
        self.tenant_id = tenant_id
        self.lock = threading.Lock()
        self.max_houses = int(max_houses)
        self.houses: dict[str, TenantHouse] = {}
        self.cache = ResultCache(
            maxsize=cache_size, name=f"tenant:{tenant_id}"
        )
        self.slo = SloTracker(
            objective_ms=slo_objective_ms, window=slo_window
        )

    def snapshot(self) -> dict:
        """Diagnostics payload for ``/health`` and ``/tenants``."""
        with self.lock:
            houses = {hid: h.summary() for hid, h in self.houses.items()}
        return {
            "tenant_id": self.tenant_id,
            "houses": houses,
            "cache": self.cache.stats(),
            "slo": self.slo.snapshot(),
        }


class TenantRegistry:
    """Lock-striped tenant_id → :class:`TenantSession` map.

    ``get_or_create`` is the hot path (every request resolves its
    tenant); striping the creation locks over ``n_stripes`` buckets
    keeps unrelated tenants from serializing on one mutex while still
    making creation race-free. Reads go through an immutable dict
    reference, so resolution of an *existing* tenant takes no lock at
    all.
    """

    def __init__(
        self,
        n_stripes: int = 16,
        cache_size: int = 256,
        slo_objective_ms: float = 250.0,
        max_tenants: int = 1024,
        max_houses: int = MAX_HOUSES_PER_TENANT,
    ):
        if n_stripes < 1:
            raise ValueError("n_stripes must be >= 1")
        self._stripes = tuple(threading.Lock() for _ in range(n_stripes))
        # All copy-on-write publishes of ``_sessions`` go through this
        # one lock. Stripe locks only serialize same-tenant creation;
        # two creates on *different* stripes would otherwise each copy
        # the same base dict and the last publish would silently drop
        # the other tenant's session.
        self._publish_lock = threading.Lock()
        self._sessions: dict[str, TenantSession] = {}
        self._cache_size = cache_size
        self._slo_objective_ms = slo_objective_ms
        self._max_tenants = max_tenants
        self._max_houses = max_houses
        _REGISTRIES.add(self)

    @staticmethod
    def validate_tenant_id(tenant_id: str) -> str:
        if not isinstance(tenant_id, str) or not _TENANT_ID.match(tenant_id):
            raise ValueError(
                "tenant id must match [A-Za-z0-9_.-]{1,64}, got "
                f"{tenant_id!r}"
            )
        return tenant_id

    def _stripe(self, tenant_id: str) -> threading.Lock:
        return self._stripes[hash(tenant_id) % len(self._stripes)]

    def get(self, tenant_id: str) -> TenantSession | None:
        return self._sessions.get(tenant_id)

    def get_or_create(self, tenant_id: str) -> TenantSession:
        tenant_id = self.validate_tenant_id(tenant_id)
        session = self._sessions.get(tenant_id)
        if session is not None:
            return session
        with self._stripe(tenant_id):
            session = self._sessions.get(tenant_id)
            if session is not None:
                return session
            session = TenantSession(
                tenant_id,
                cache_size=self._cache_size,
                slo_objective_ms=self._slo_objective_ms,
                max_houses=self._max_houses,
            )
            # Copy-on-write publish: readers iterate/lookup without a
            # lock, so never mutate the published dict in place — and
            # copy+swap only under the registry-wide publish lock, so
            # concurrent publishes on other stripes cannot base their
            # copy on a stale dict and drop this session.
            with self._publish_lock:
                if len(self._sessions) >= self._max_tenants:
                    raise OverflowError(
                        f"tenant registry full ({self._max_tenants} tenants)"
                    )
                sessions = dict(self._sessions)
                sessions[tenant_id] = session
                self._sessions = sessions
            if obs.enabled():
                obs.registry.counter(
                    "serve.tenants_created_total",
                    help="tenant sessions created by the registry",
                ).inc()
            return session

    def drop(self, tenant_id: str) -> bool:
        """Forget one tenant (its cache and houses become garbage)."""
        with self._stripe(tenant_id):
            with self._publish_lock:
                if tenant_id not in self._sessions:
                    return False
                sessions = dict(self._sessions)
                del sessions[tenant_id]
                self._sessions = sessions
            return True

    def tenants(self) -> list[TenantSession]:
        return list(self._sessions.values())

    def close(self) -> None:
        """Leave process health: a closed server's tenant SLO windows
        stop feeding :func:`tenant_trackers` at once, not whenever the
        cyclic garbage collector frees the registry."""
        _REGISTRIES.discard(self)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._sessions


# -- cost attribution --------------------------------------------------------
#
# The serve layer bills every request with sampled CPU-ms (via
# ``time.thread_time()`` deltas on the handler thread) and windows-swept.
# Work done *on behalf of* a request on another thread — the micro-batch
# leader's stacked sweep — is split across the coalesced rows: the
# executing thread records its inline cost and each row's share through
# the thread-local accumulator below, and ``service.execute`` settles
# the bill as ``handler_delta - inline + share`` when the request exits.

_WORK = threading.local()


def bill_work(
    cpu_share_ms: float = 0.0,
    cpu_inline_ms: float = 0.0,
    windows: int = 0,
) -> None:
    """Accumulate attributed work for the current thread's request.

    ``cpu_share_ms`` is this request's *fair share* of work executed
    somewhere (possibly on this very thread); ``cpu_inline_ms`` is work
    that ran on this thread but belongs to the shared pool (the batch
    leader's whole-batch sweep) and must be subtracted from the thread's
    raw CPU delta to avoid double billing. Callable multiple times per
    request; totals settle at :func:`consume_work`.
    """
    _WORK.share_ms = getattr(_WORK, "share_ms", 0.0) + float(cpu_share_ms)
    _WORK.inline_ms = getattr(_WORK, "inline_ms", 0.0) + float(cpu_inline_ms)
    _WORK.windows = getattr(_WORK, "windows", 0) + int(windows)


def consume_work() -> tuple[float, float, int]:
    """``(share_ms, inline_ms, windows)`` for this thread; resets to 0."""
    out = (
        getattr(_WORK, "share_ms", 0.0),
        getattr(_WORK, "inline_ms", 0.0),
        getattr(_WORK, "windows", 0),
    )
    _WORK.share_ms = 0.0
    _WORK.inline_ms = 0.0
    _WORK.windows = 0
    return out


class CostLedger:
    """Thread-safe per-tenant and per-route resource accounting.

    Tracks cumulative CPU-ms, request counts, and windows swept, plus a
    rolling window of recent charges from which
    :meth:`recent_share` derives each tenant's share of *current* burn —
    the signal :class:`~repro.serve.admission.AdmissionController` uses
    to shed a heavy tenant before the whole service trips. Charges also
    publish the ``devicescope.*`` labeled metric families (rendered as
    ``devicescope_tenant_cpu_ms_total`` etc. in OpenMetrics).
    """

    def __init__(self, recent_window: int = 256):
        if recent_window < 1:
            raise ValueError("recent_window must be >= 1")
        self._lock = threading.Lock()
        self._tenants: dict[str, dict] = {}
        self._routes: dict[str, dict] = {}
        self._recent: deque[tuple[str, float]] = deque(maxlen=recent_window)

    def charge(
        self,
        tenant_id: str,
        route: str,
        cpu_ms: float,
        windows: int = 0,
        duration_s: float = 0.0,
        outcome: str = "ok",
    ) -> None:
        """Bill one completed (or rejected) request."""
        cpu_ms = max(0.0, float(cpu_ms))
        with self._lock:
            tenant = self._tenants.setdefault(
                tenant_id, {"cpu_ms": 0.0, "requests": 0, "windows": 0}
            )
            tenant["cpu_ms"] += cpu_ms
            tenant["requests"] += 1
            tenant["windows"] += int(windows)
            rt = self._routes.setdefault(
                route, {"cpu_ms": 0.0, "requests": 0, "windows": 0}
            )
            rt["cpu_ms"] += cpu_ms
            rt["requests"] += 1
            rt["windows"] += int(windows)
            self._recent.append((tenant_id, cpu_ms))
        if obs.enabled():
            obs.registry.counter(
                "devicescope.tenant_cpu_ms_total",
                help="sampled CPU milliseconds attributed per tenant",
            ).inc(cpu_ms, tenant=tenant_id)
            obs.registry.counter(
                "devicescope.tenant_windows_swept_total",
                help="localization windows swept per tenant",
            ).inc(int(windows), tenant=tenant_id)
            obs.registry.counter(
                "devicescope.route_requests_total",
                help="requests per route and outcome",
            ).inc(route=route, outcome=outcome)
            obs.registry.histogram(
                "devicescope.route_seconds",
                help="request wall time per route",
            ).observe(duration_s, route=route)

    def recent_share(self, tenant_id: str) -> float:
        """This tenant's fraction of recent CPU-ms (0.0 with no data)."""
        with self._lock:
            total = 0.0
            mine = 0.0
            for tid, cpu_ms in self._recent:
                total += cpu_ms
                if tid == tenant_id:
                    mine += cpu_ms
        if total <= 0.0:
            return 0.0
        return mine / total

    def top_tenants(self, n: int = 5) -> list[dict]:
        """Heaviest tenants by cumulative CPU-ms, descending, each with
        its ``share`` of the all-tenant total."""
        with self._lock:
            rows = [
                {"tenant": tid, **dict(acc)}
                for tid, acc in self._tenants.items()
            ]
        total = sum(row["cpu_ms"] for row in rows)
        for row in rows:
            row["share"] = row["cpu_ms"] / total if total > 0.0 else 0.0
        rows.sort(key=lambda r: (-r["cpu_ms"], r["tenant"]))
        return rows[: max(0, n)]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "tenants": {t: dict(a) for t, a in self._tenants.items()},
                "routes": {r: dict(a) for r, a in self._routes.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._tenants.clear()
            self._routes.clear()
            self._recent.clear()


def tenant_trackers() -> list[tuple[str, SloTracker]]:
    """All live per-tenant SLO trackers in this process.

    The bridge that keeps ``/health`` and the CLI's derived status in
    agreement: :func:`repro.app.session.process_status` folds each of
    these into the same worst-of computation the serve layer uses.
    """
    out: list[tuple[str, SloTracker]] = []
    for registry in list(_REGISTRIES):
        for session in registry.tenants():
            out.append((session.tenant_id, session.slo))
    return out


def tenant_slo_snapshots() -> dict[str, dict]:
    """``tenant_id -> SloTracker.snapshot()`` across every registry."""
    return {tenant_id: slo.snapshot() for tenant_id, slo in tenant_trackers()}
