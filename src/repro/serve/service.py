"""Transport-free request logic for the DeviceScope service.

:class:`DeviceScopeService` implements every endpoint as a plain method
returning a JSON-serializable dict; the HTTP layer
(:mod:`repro.serve.http`) only parses paths and maps
:class:`ServiceError` to status codes. Keeping the logic off the socket
makes the full API unit-testable without ports and reusable by future
transports (the ROADMAP's micro-batching layer will call these same
methods).

Every request runs through :meth:`DeviceScopeService.execute`:

1. admission control (503 + ``Retry-After`` when shedding — shed
   requests never reach the engine, the cache, or the SLO window);
2. an ``obs.request(kind="serve", route=..., tenant=...)`` scope, so
   request-scoped telemetry, the telemetry store, and quality drift
   observation work exactly as they do under the Playground;
3. per-tenant SLO recording (the tenant's own
   :class:`~repro.obs.SloTracker`, on top of the global one that the
   request scope feeds automatically).

Inference routes through the PR 3 fast path and the tenant's
:class:`~repro.core.ResultCache`; degraded results are returned but
never cached (the PR 4 contract, enforced by ``cache_if``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .. import obs
from ..core import CamAL, live_window_key, window_key
from ..datasets import APPLIANCE_NAMES, Standardizer, build_dataset
from ..models import ResNetEnsemble
from ..obs import context as obs_context
from ..obs.contprof import ContinuousProfiler
from ..robust import RobustError
from ..nn.conv import TIME_TILE
from ..stream import SlidingCamAL
from .admission import AdmissionController
from .batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, MicroBatcher
from .tenancy import (
    CostLedger,
    TenantHouse,
    TenantRegistry,
    TenantSession,
    consume_work,
)

__all__ = ["ServiceError", "ModelBank", "DeviceScopeService"]

#: Ingest batches and analysis windows are bounded per request, and the
#: tenancy layer bounds what accumulates across requests (per-house
#: sample quota, houses-per-tenant cap, ``max_tenants``) — so neither
#: one request nor many can balloon the process (the engine chunks at
#: 1024 internally).
MAX_INGEST_SAMPLES = 1_000_000
MAX_WINDOW_SAMPLES = 4096


class ServiceError(Exception):
    """An error with an HTTP status and a JSON payload."""

    def __init__(self, status: int, message: str, **extra: object):
        super().__init__(message)
        self.status = int(status)
        self.payload = {"error": message, **extra}


class ModelBank:
    """Appliance → (:class:`~repro.core.CamAL`, lock) shared by tenants.

    Models are read-only at serve time, so tenants share one instance
    per appliance; the per-model lock serializes ensemble sweeps (the
    from-scratch numpy modules are not reentrant across threads — the
    ROADMAP's batched backbone removes this serialization later).
    Tenant isolation lives in the *caches*: cache keys include the model
    fingerprint, and each tenant keys into its own cache.

    By default the bank builds seeded, untrained ensembles over a
    synthetic-profile standardizer — the training-free serving-shape
    workload every smoke in this repo uses. Pass ``models`` (e.g. from
    ``DeviceScope.bootstrap().models``) to serve trained ensembles.
    """

    def __init__(
        self,
        appliances: tuple[str, ...] = ("kettle",),
        profile: str = "ukdale",
        seed: int = 0,
        kernel_sizes: tuple[int, ...] = (5, 9),
        n_filters: tuple[int, int, int] = (4, 8, 8),
        workers: int | None = None,
        models: dict[str, CamAL] | None = None,
    ):
        self.appliances = tuple(appliances)
        unknown = set(self.appliances) - set(APPLIANCE_NAMES)
        if unknown:
            raise ValueError(
                f"unknown appliances: {', '.join(sorted(unknown))}"
            )
        self._seed = seed
        self._profile = profile
        self._kernel_sizes = tuple(kernel_sizes)
        self._n_filters = tuple(n_filters)
        self._workers = workers
        self._lock = threading.Lock()
        self._models: dict[str, CamAL] = dict(models or {})
        self._model_locks: dict[str, threading.Lock] = {
            name: threading.Lock() for name in self._models
        }
        self._scaler: Standardizer | None = None

    @classmethod
    def from_models(cls, models: dict[str, CamAL]) -> "ModelBank":
        """Wrap already-built models (e.g. a trained session's)."""
        return cls(appliances=tuple(models), models=models)

    def _default_scaler(self) -> Standardizer:
        if self._scaler is None:
            dataset = build_dataset(
                self._profile, seed=self._seed, n_houses=2,
                days_per_house=(2, 3),
            )
            aggregate = np.nan_to_num(
                dataset.houses[0].aggregate, nan=0.0
            )
            self._scaler = Standardizer.fit(aggregate[None, :])
        return self._scaler

    def get(self, appliance: str) -> tuple[CamAL, threading.Lock]:
        """The model + its sweep lock, built lazily on first use."""
        if appliance not in self.appliances:
            raise ServiceError(
                404,
                f"no model for appliance {appliance!r}",
                available=sorted(self.appliances),
            )
        with self._lock:
            model = self._models.get(appliance)
            if model is None:
                ensemble = ResNetEnsemble(
                    self._kernel_sizes,
                    n_filters=self._n_filters,
                    seed=self._seed,
                )
                ensemble.eval()
                model = CamAL(
                    ensemble, self._default_scaler(), workers=self._workers
                )
                self._models[appliance] = model
                self._model_locks[appliance] = threading.Lock()
            return model, self._model_locks[appliance]

    def describe(self) -> dict:
        with self._lock:
            loaded = sorted(self._models)
        return {
            "appliances": sorted(self.appliances),
            "loaded": loaded,
            "catalogue": sorted(APPLIANCE_NAMES),
        }

    def close(self) -> None:
        """Release model resources (each ensemble's member-fanout pool)."""
        with self._lock:
            models = list(self._models.values())
        for model in models:
            model.ensemble.close()


class DeviceScopeService:
    """The endpoint logic behind :class:`repro.serve.DeviceScopeServer`."""

    def __init__(
        self,
        bank: ModelBank | None = None,
        registry: TenantRegistry | None = None,
        admission: AdmissionController | None = None,
        batcher: MicroBatcher | None = None,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        batch_max: int = DEFAULT_BATCH_MAX,
    ):
        self.bank = bank if bank is not None else ModelBank()
        # Explicit None checks: an *empty* TenantRegistry is falsy
        # (it defines __len__), so ``registry or TenantRegistry()``
        # would silently discard a caller-configured registry.
        self.registry = registry if registry is not None else TenantRegistry()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.batcher = (
            batcher
            if batcher is not None
            else MicroBatcher(
                batch_window_ms=batch_window_ms, batch_max=batch_max
            )
        )
        #: Per-tenant / per-route CPU-ms + windows accounting. Feeds the
        #: ``devicescope_*`` metric families, the ``/health`` top-tenants
        #: table, and admission control's per-tenant cost gate.
        self.costs = CostLedger()
        #: Continuous stack sampler behind ``GET /debug/pprof``. Owned
        #: here (not the HTTP server) so the transport-free service and
        #: the CLI can profile too; the server starts/stops it around
        #: its own lifecycle.
        self.profiler = ContinuousProfiler()
        self.started_at = time.time()

    def close(self) -> None:
        """Release held resources; the server calls this on shutdown."""
        self.profiler.stop()
        self.bank.close()

    # -- the request wrapper ----------------------------------------------

    def execute(
        self,
        route: str,
        tenant_id: str,
        thunk,
        admission_exempt: bool = False,
        trace: "dict | None" = None,
    ) -> tuple[int, dict, dict]:
        """Run one request end to end.

        Returns ``(status, payload, headers)``. ``admission_exempt``
        marks the routes that must keep answering under overload
        (``/health``, ``/metrics`` — an unscrapeable melting server is
        undebuggable). ``trace`` carries transport-negotiated identity
        (``request_id`` / ``trace_id`` / ``parent_span_id``, all
        optional) so a client-supplied ``traceparent`` threads into the
        request scope and every span under it.

        Every return path — including bad tenant id, registry-full, and
        admission shed, which never open a work scope — carries
        ``X-Request-Id`` + ``traceparent`` headers and is billed to
        ``obs.requests_total`` / the flight recorder / the cost ledger,
        so no response the service produces is untraceable.
        """
        trace = trace or {}
        rid = trace.get("request_id") or obs_context.new_request_id("serve")
        trace_id = trace.get("trace_id") or obs_context.new_trace_id()
        parent_span_id = trace.get("parent_span_id")
        span_hex = obs_context.new_span_id_hex()
        headers = {
            "X-Request-Id": rid,
            "traceparent": obs_context.format_traceparent(trace_id, span_hex),
        }

        def rejected(outcome: str, reason: str, cost_tenant: str) -> None:
            obs.record_rejected(
                kind="serve",
                outcome=outcome,
                request_id=rid,
                trace_id=trace_id,
                route=route,
                tenant=cost_tenant,
                reason=reason,
            )
            self.costs.charge(
                cost_tenant, route, cpu_ms=0.0, outcome=outcome
            )

        try:
            TenantRegistry.validate_tenant_id(tenant_id)
        except ValueError as err:
            # The raw id is unvalidated bytes — never a metrics label.
            rejected("client_error", "bad_tenant_id", "invalid")
            return 400, {"error": str(err)}, dict(headers)
        try:
            tenant = self.registry.get_or_create(tenant_id)
        except OverflowError as err:
            # Registry exhaustion is overload, not caller error.
            rejected("shed", "registry_full", tenant_id)
            return (
                503,
                {"error": str(err)},
                {"Retry-After": "1", **headers},
            )
        if not admission_exempt:
            decision = self.admission.decide(
                tenant=tenant,
                cost_share=self.costs.recent_share(tenant_id),
            )
            if not decision.accepted:
                rejected("shed", decision.reason, tenant_id)
                return (
                    503,
                    {
                        "error": "overloaded; request shed",
                        "reason": decision.reason,
                        "retry_after_s": decision.retry_after_s,
                    },
                    {
                        "Retry-After": f"{decision.retry_after_s:g}",
                        **headers,
                    },
                )
        start = time.perf_counter()
        cpu0 = time.thread_time()
        consume_work()  # drop any stale accumulator state on this thread
        # Pessimistic default: an exception type we did not anticipate
        # propagates to the HTTP layer's 500 handler, and the finally
        # must bill it as an error — never as "ok" — so the tenant
        # tracker and the global one (obs.request's exception path)
        # always agree.
        outcome = "error"
        try:
            with obs.request(
                kind="serve",
                request_id=rid,
                trace_id=trace_id,
                parent_span_id=parent_span_id,
                route=route,
                tenant=tenant_id,
            ) as req:
                if getattr(req, "request_id", None) == rid:
                    # We own the scope (not joined, not the no-op):
                    # align its span id with the traceparent we return.
                    req.span_id_hex = span_hex
                with obs.span(f"serve.{route}", route=route, tenant=tenant_id):
                    try:
                        status, payload = thunk(tenant)
                    except ServiceError as err:
                        if err.status >= 500:
                            raise
                        # Handled 4xx: the caller's fault, answered
                        # correctly. Billed as client_error — which
                        # spends no error budget (obs.GOOD_OUTCOMES) —
                        # in *both* the global tracker (via the request
                        # scope) and the tenant tracker (the finally),
                        # so a client replaying bad requests cannot trip
                        # admission control for everyone.
                        outcome = "client_error"
                        req.set_outcome(outcome)
                        return err.status, err.payload, dict(headers)
                    except (
                        RobustError, ValueError, KeyError, OverflowError
                    ) as err:
                        outcome = "client_error"
                        req.set_outcome(outcome)
                        return 400, {"error": str(err)}, dict(headers)
                    if payload.get("verdict") in ("degraded", "failed"):
                        req.mark_degraded()
                    outcome = req.outcome
            return status, payload, dict(headers)
        except ServiceError as err:
            # 5xx ServiceErrors are genuine service failures.
            return err.status, err.payload, dict(headers)
        finally:
            elapsed = time.perf_counter() - start
            tenant.slo.record(elapsed, outcome=outcome)
            share_ms, inline_ms, windows = consume_work()
            # Attributed CPU: what this thread burned, minus shared work
            # it executed on others' behalf (the batch leader's stacked
            # sweep), plus this request's fair share of shared work.
            cpu_ms = (
                (time.thread_time() - cpu0) * 1e3 - inline_ms + share_ms
            )
            self.costs.charge(
                tenant_id,
                route,
                cpu_ms,
                windows=windows,
                duration_s=elapsed,
                outcome=outcome,
            )

    # -- houses ------------------------------------------------------------

    def _house(self, tenant: TenantSession, house_id: str) -> TenantHouse:
        with tenant.lock:
            house = tenant.houses.get(house_id)
        if house is None:
            raise ServiceError(
                404,
                f"no house {house_id!r} for tenant {tenant.tenant_id!r}",
                available=sorted(tenant.houses),
            )
        return house

    def list_houses(self, tenant: TenantSession) -> tuple[int, dict]:
        with tenant.lock:
            houses = {h: house.summary() for h, house in tenant.houses.items()}
        return 200, {"houses": houses}

    def create_house(self, tenant: TenantSession, body: dict) -> tuple[int, dict]:
        house_id = body.get("house_id")
        if not isinstance(house_id, str) or not house_id:
            raise ServiceError(400, "house_id (non-empty string) is required")
        step_s = float(body.get("step_s", 60.0))
        if step_s <= 0:
            raise ServiceError(400, "step_s must be positive")
        watts = _as_watts(body.get("watts", []))
        with tenant.lock:
            if house_id in tenant.houses:
                raise ServiceError(409, f"house {house_id!r} already exists")
            if len(tenant.houses) >= tenant.max_houses:
                raise ServiceError(
                    429,
                    f"tenant {tenant.tenant_id!r} already holds "
                    f"{tenant.max_houses} houses; delete one first",
                )
            house = TenantHouse(
                house_id=house_id, step_s=step_s, aggregate=watts
            )
            tenant.houses[house_id] = house
            summary = house.summary()
        return 201, summary

    def get_house(self, tenant: TenantSession, house_id: str) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        with tenant.lock:
            return 200, house.summary()

    def delete_house(self, tenant: TenantSession, house_id: str) -> tuple[int, dict]:
        with tenant.lock:
            if tenant.houses.pop(house_id, None) is None:
                raise ServiceError(404, f"no house {house_id!r}")
        return 200, {"deleted": house_id}

    # -- ingestion + series ------------------------------------------------

    def ingest(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        watts = _as_watts(body.get("watts"))
        if watts.size == 0:
            raise ServiceError(400, "watts (non-empty list) is required")
        with tenant.lock:
            if house.n_steps + watts.size > house.max_samples:
                raise ServiceError(
                    413,
                    f"house {house_id!r} holds {house.n_steps} of its "
                    f"{house.max_samples}-sample quota; this batch of "
                    f"{watts.size} does not fit — delete the house or "
                    "create a new one",
                    n_steps=house.n_steps,
                    max_samples=house.max_samples,
                )
            n_steps = house.ingest(watts)
        if obs.enabled():
            obs.registry.counter(
                "serve.samples_ingested_total",
                help="watt samples appended through the ingest endpoint",
            ).inc(int(watts.size), tenant=tenant.tenant_id)
        return 200, {
            "house_id": house_id,
            "appended": int(watts.size),
            "n_steps": n_steps,
        }

    def append(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        """Streaming ingest: raw readings at the house's native rate.

        ``factor`` (or equivalently ``step_s``, the seconds-per-sample
        of the batch) selects the block-mean downsample to the house
        grid; sub-block remainders carry to the next append. An empty
        batch is an explicit no-op (200, nothing committed, epoch
        unchanged) — heartbeat pushes from meters are normal traffic,
        not errors.
        """
        house = self._house(tenant, house_id)
        watts = _as_watts(body.get("watts", []))
        factor = body.get("factor")
        step_s = body.get("step_s")
        if factor is not None and step_s is not None:
            raise ServiceError(400, "pass factor or step_s, not both")
        if step_s is not None:
            try:
                step_s = float(step_s)
            except (TypeError, ValueError):
                raise ServiceError(400, "step_s must be a number")
            if step_s <= 0:
                raise ServiceError(400, "step_s must be positive")
            ratio = house.step_s / step_s
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ServiceError(
                    400,
                    f"step_s {step_s:g}s does not divide the house grid "
                    f"({house.step_s:g}s per sample)",
                )
            factor = int(round(ratio))
        elif factor is None:
            factor = 1
        elif not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise ServiceError(400, "factor must be a positive integer")
        with tenant.lock:
            planned = house.store.plan(watts.size, factor)
            if house.n_steps + planned > house.max_samples:
                raise ServiceError(
                    413,
                    f"house {house_id!r} holds {house.n_steps} of its "
                    f"{house.max_samples}-sample quota; this batch would "
                    f"commit {planned} resampled samples and does not fit "
                    "— delete the house or create a new one",
                    n_steps=house.n_steps,
                    max_samples=house.max_samples,
                )
            committed = house.append(watts, factor=factor)
        if obs.enabled() and watts.size:
            obs.registry.counter(
                "serve.samples_ingested_total",
                help="watt samples appended through the ingest endpoint",
            ).inc(int(committed), tenant=tenant.tenant_id)
        uid, epoch = house.epoch
        return 200, {
            "house_id": house_id,
            "received": int(watts.size),
            "factor": int(factor),
            "committed": int(committed),
            "pending": house.store.pending,
            "n_steps": house.n_steps,
            "epoch": int(epoch),
        }

    def series(
        self,
        tenant: TenantSession,
        house_id: str,
        start: int | None,
        length: int | None,
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        with tenant.lock:
            start, length = _window_bounds(house, start, length)
            window = house.read_window(start, length)
        return 200, {
            "house_id": house_id,
            "start": start,
            "length": length,
            "watts": [None if np.isnan(w) else float(w) for w in window],
        }

    # -- devices -----------------------------------------------------------

    def list_devices(
        self, tenant: TenantSession, house_id: str
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        with tenant.lock:
            return 200, {
                "house_id": house_id, "devices": dict(house.devices)
            }

    def attach_device(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        appliance = body.get("appliance")
        if appliance not in APPLIANCE_NAMES:
            raise ServiceError(
                400,
                f"appliance must be one of the catalogue, got {appliance!r}",
                catalogue=sorted(APPLIANCE_NAMES),
            )
        if appliance not in self.bank.appliances:
            raise ServiceError(
                404,
                f"no model served for {appliance!r}",
                available=sorted(self.bank.appliances),
            )
        device = {"appliance": appliance, "attached_at": time.time()}
        with tenant.lock:
            created = appliance not in house.devices
            house.devices[appliance] = device
        return (201 if created else 200), {
            "house_id": house_id, "appliance": appliance,
        }

    def detach_device(
        self, tenant: TenantSession, house_id: str, appliance: str
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        with tenant.lock:
            if house.devices.pop(appliance, None) is None:
                raise ServiceError(
                    404, f"{appliance!r} is not attached to {house_id!r}"
                )
        return 200, {"house_id": house_id, "detached": appliance}

    # -- inference ---------------------------------------------------------

    def _analysis_window(
        self,
        tenant: TenantSession,
        house_id: str,
        body: dict,
    ) -> tuple[str, np.ndarray, int, int]:
        house = self._house(tenant, house_id)
        appliance = body.get("appliance")
        with tenant.lock:
            if appliance not in house.devices:
                raise ServiceError(
                    409,
                    f"appliance {appliance!r} is not attached to "
                    f"{house_id!r}; POST it to /houses/{house_id}/devices "
                    "first",
                    attached=sorted(house.devices),
                )
            start = body.get("start")
            length = body.get("length")
            start, length = _window_bounds(house, start, length)
            window = house.read_window(start, length)
        return appliance, window, start, length

    def _localize(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[dict, "np.ndarray | None", int, int]:
        appliance, window, start, length = self._analysis_window(
            tenant, house_id, body
        )
        model, sweep_lock = self.bank.get(appliance)
        computed = False

        def compute():
            nonlocal computed
            computed = True
            # The micro-batcher may coalesce this window with concurrent
            # requests into one stacked sweep; the row that comes back
            # is bit-identical to a solo ``localize_watts(window[None])``
            # under the sweep lock (DESIGN.md §12), so cache contents
            # and verdicts are unchanged by batching.
            return self.batcher.localize(appliance, model, sweep_lock, window)

        key = window_key(appliance, window, model.fingerprint())
        # The PR 4 contract: degraded results are answered but never
        # cached — a transient defect must not replay as a hit forever.
        # Same-tenant duplicates single-flight through the cache;
        # cross-tenant duplicates still compute per tenant (isolated
        # caches) but coalesce into one sweep in the batcher.
        result = tenant.cache.get_or_compute(
            key, compute, cache_if=lambda r: not r.any_degraded
        )
        if result.degraded[0]:
            verdict = "degraded"
        elif result.repaired[0]:
            verdict = "repaired"
        else:
            verdict = "ok"
        probability = float(result.probabilities[0])
        base = {
            "house_id": house_id,
            "appliance": appliance,
            "start": start,
            "length": length,
            "probability": None if np.isnan(probability) else probability,
            "detected": bool(result.detected[0]),
            "verdict": verdict,
            "cached": not computed,
        }
        status = None if result.degraded[0] else result.status[0]
        return base, status, start, length

    def detect(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        base, status, _, _ = self._localize(tenant, house_id, body)
        return 200, base

    def localize(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        base, status, start, length = self._localize(tenant, house_id, body)
        if status is None:
            base.update({"on_fraction": None, "intervals": []})
            return 200, base
        on = status > 0.5
        base.update({
            "on_fraction": float(on.mean()),
            # Half-open [start, end) sample intervals, absolute indices.
            "intervals": [
                [int(a) + start, int(b) + start] for a, b in _runs(on)
            ],
        })
        return 200, base

    def live_localize(
        self,
        tenant: TenantSession,
        house_id: str,
        appliance: str | None,
        window: int | None,
    ) -> tuple[int, dict]:
        """Localize the live tail of a house via the incremental path.

        Keeps one :class:`~repro.stream.SlidingCamAL` per
        (house, appliance) in ``house.live`` so consecutive calls after
        appends only re-sweep the receptive-field tail; results are
        bit-identical to a cold ``localize_watts`` over the same window
        (the ``tests/stream`` harness) and cached under an
        **epoch-including** key (:func:`repro.core.live_window_key`) so
        an append can never replay a stale window. Degraded windows are
        answered but never cached, like the batch route.
        """
        house = self._house(tenant, house_id)
        if appliance is None:
            raise ServiceError(400, "appliance query parameter is required")
        if window is None:
            window = min(1440, MAX_WINDOW_SAMPLES)
        window = int(window)
        if not TIME_TILE <= window <= MAX_WINDOW_SAMPLES:
            raise ServiceError(
                400,
                f"window must be in [{TIME_TILE}, {MAX_WINDOW_SAMPLES}]",
            )
        with tenant.lock:
            if appliance not in house.devices:
                raise ServiceError(
                    409,
                    f"appliance {appliance!r} is not attached to "
                    f"{house_id!r}; POST it to /houses/{house_id}/devices "
                    "first",
                    attached=sorted(house.devices),
                )
            if house.n_steps < 2:
                raise ServiceError(
                    409,
                    f"house {house_id!r} has only {house.n_steps} samples; "
                    "ingest a series first",
                )
        model, sweep_lock = self.bank.get(appliance)
        with tenant.lock:
            live = house.live.get(appliance)
            if (
                not isinstance(live, SlidingCamAL)
                or live.camal is not model
                or live.window != window
            ):
                live = SlidingCamAL(
                    model, house.store, window=window, appliance=appliance
                )
                house.live[appliance] = live
            uid, epoch = house.epoch
        computed = False

        def compute():
            nonlocal computed
            computed = True
            with sweep_lock:
                return live.localize()

        key = live_window_key(
            appliance, model.fingerprint(), uid, epoch, window
        )
        loc = tenant.cache.get_or_compute(
            key, compute, cache_if=lambda v: not v.result.degraded[0]
        )
        result = loc.result
        if result.degraded[0]:
            verdict = "degraded"
        elif result.repaired[0]:
            verdict = "repaired"
        else:
            verdict = "ok"
        probability = float(result.probabilities[0])
        payload = {
            "house_id": house_id,
            "appliance": appliance,
            "start": loc.start,
            "length": loc.end - loc.start,
            "epoch": int(epoch),
            "probability": None if np.isnan(probability) else probability,
            "detected": bool(result.detected[0]),
            "verdict": verdict,
            "cached": not computed,
            "reuse": {
                "reused": loc.reused,
                "computed": loc.computed,
                "ratio": loc.reuse_ratio,
            },
        }
        if result.degraded[0]:
            payload.update({"on_fraction": None, "intervals": []})
            return 200, payload
        on = result.status[0] > 0.5
        payload.update({
            "on_fraction": float(on.mean()),
            # Half-open [start, end) sample intervals, absolute indices.
            "intervals": [
                [int(a) + loc.start, int(b) + loc.start] for a, b in _runs(on)
            ],
        })
        return 200, payload

    # -- introspection -----------------------------------------------------

    def appliances(self) -> tuple[int, dict]:
        return 200, self.bank.describe()

    def metrics_text(self) -> str:
        return obs.to_openmetrics(
            obs.registry.snapshot(), slo=obs.slo_tracker.snapshot()
        )

    def flight_payload(self, fmt: "str | None" = None) -> tuple[int, object]:
        """The flight recorder's retained traces (operator plane).

        ``fmt="chrome"`` returns a Chrome trace-event document over all
        retained span trees — download and open in Perfetto; the default
        returns stats + entries as JSON.
        """
        recorder = obs.flight_recorder
        if fmt == "chrome":
            return 200, recorder.to_chrome_trace()
        if fmt is not None:
            raise ServiceError(
                400, f"unknown format {fmt!r}; use format=chrome or omit"
            )
        return 200, {
            "stats": recorder.stats(),
            "entries": recorder.entries(),
        }

    def pprof_text(self) -> str:
        """Collapsed-stack flamegraph text from the continuous profiler."""
        stats = self.profiler.stats()
        header = (
            f"# devicescope continuous profiler: "
            f"samples={stats['samples']} stacks={stats['stacks']} "
            f"interval_s={stats['interval_s']:g} "
            f"running={int(stats['running'])}\n"
        )
        return header + self.profiler.collapsed() + "\n"

    def health(self) -> tuple[int, dict]:
        """Process health: the same status the CLI derives.

        ``status`` comes from :func:`repro.app.session.process_status`,
        which folds the global SLO tracker **and every per-tenant
        tracker** through :func:`~repro.app.session.derive_status` — so
        this endpoint and ``devicescope obs --watch`` / ``faultcheck``
        can never disagree.
        """
        from ..app.session import process_status
        from ..robust import metrics_snapshot

        status = process_status()
        payload = {
            "status": status,
            "uptime_s": time.time() - self.started_at,
            "shedding": self.admission.shedding,
            "shedding_tenants": self.admission.shedding_tenants(),
            "costs": {
                "top_tenants": self.costs.top_tenants(5),
                "routes": self.costs.snapshot()["routes"],
            },
            "flight": obs.flight_recorder.stats(),
            "profiler": self.profiler.stats(),
            "batching": self.batcher.stats(),
            "slo": obs.slo_tracker.snapshot(),
            "robust": {
                name: sum(
                    s.get("value", 0) for s in metric.get("series", [])
                )
                for name, metric in metrics_snapshot().items()
            },
            "tenants": {
                session.tenant_id: session.snapshot()
                for session in self.registry.tenants()
            },
        }
        from .. import quality

        monitor = quality.monitor()
        if monitor is not None:
            payload["quality"] = monitor.status()
        # Health stays 200 even when degraded: the scraper needs the
        # body; load balancers should read payload["status"].
        return 200, payload


# -- helpers ---------------------------------------------------------------


#: Element types a decoded JSON watts array may hold (``bool`` is not one).
_JSON_NUMBER_TYPES = frozenset({int, float, type(None)})


def _as_watts(values) -> np.ndarray:
    """Parse a JSON watts list (numbers, null → NaN) into float64.

    One vectorized conversion once every element's exact type is
    checked; the cost per sample is C, not a Python step.
    """
    if values is None:
        raise ServiceError(400, "watts (list of numbers) is required")
    if not isinstance(values, (list, tuple)):
        raise ServiceError(400, "watts must be a JSON array")
    if len(values) > MAX_INGEST_SAMPLES:
        raise ServiceError(
            413, f"at most {MAX_INGEST_SAMPLES} samples per request"
        )
    if not set(map(type, values)) <= _JSON_NUMBER_TYPES:
        # Only to name the first bad element; int/float subclasses
        # (from in-process callers, never from JSON) pass through.
        for i, v in enumerate(values):
            if v is not None and (
                not isinstance(v, (int, float)) or isinstance(v, bool)
            ):
                raise ServiceError(
                    400, f"watts[{i}] is not a number or null: {v!r}"
                )
    # None -> NaN; an int beyond float range raises OverflowError,
    # exactly as float() does.
    return np.array(values, dtype=np.float64)


def _window_bounds(
    house: TenantHouse, start, length
) -> tuple[int, int]:
    """Resolve (start, length) defaults against the ingested series.

    Default: the most recent ``min(n_steps, MAX_WINDOW_SAMPLES)``
    samples — the "analyze what just arrived" shape of a live meter.
    """
    n = house.n_steps
    if n < 2:
        raise ServiceError(
            409,
            f"house {house.house_id!r} has only {n} samples; "
            "ingest a series first",
        )
    if length is None:
        length = min(n, MAX_WINDOW_SAMPLES)
    length = int(length)
    if not 2 <= length <= MAX_WINDOW_SAMPLES:
        raise ServiceError(
            400, f"length must be in [2, {MAX_WINDOW_SAMPLES}]"
        )
    if start is None:
        start = max(n - length, 0)
    start = int(start)
    if start < 0 or start + length > n:
        raise ServiceError(
            400,
            f"window [{start}, {start + length}) is outside the "
            f"{n} ingested samples",
        )
    return start, length


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) runs of True in a boolean vector."""
    padded = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    starts = np.flatnonzero(padded == 1)
    ends = np.flatnonzero(padded == -1)
    return list(zip(starts.tolist(), ends.tolist()))
