"""Transport-free request logic for the DeviceScope service.

:class:`DeviceScopeService` implements every endpoint as a plain method
returning a JSON-serializable dict; the HTTP layer
(:mod:`repro.serve.http`) only parses paths and maps
:class:`ServiceError` to status codes. Keeping the logic off the socket
makes the full API unit-testable without ports and reusable by future
transports (the ROADMAP's micro-batching layer will call these same
methods).

Every response is **one completion record**
(:meth:`DeviceScopeService.record`):

1. opened at the first byte — the HTTP handler's entry, or
   :meth:`~DeviceScopeService.execute` itself when called without HTTP;
2. filled in by :meth:`~DeviceScopeService.execute`: admission control
   (503 + ``Retry-After`` when shedding — shed requests never reach the
   engine or the cache), then the route's thunk inside the record's
   request scope, so spans, events and quality drift observation work
   exactly as they do under the Playground;
3. closed after the last byte into an immutable
   :class:`~repro.obs.Completion`, which
   :meth:`~DeviceScopeService._complete` fans out to every sink — the
   tenant's and the global :class:`~repro.obs.SloTracker` (admitted
   requests only), the :class:`~repro.serve.tenancy.CostLedger`, the
   request metrics, the telemetry store and the flight recorder.

Inference routes through the single CamAL sweep and the tenant's
:class:`~repro.core.ResultCache`; degraded results are returned but
never cached (the PR 4 contract, enforced by ``cache_if``).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from typing import Iterator

import numpy as np

from .. import obs
from ..core import CamAL, CamALResult, live_window_key, window_key
from ..datasets import APPLIANCE_NAMES, Standardizer, build_dataset
from ..models import ResNetEnsemble
from ..obs import context as obs_context
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

__all__ = [
    "ServiceError",
    "ModelBank",
    "DeviceScopeService",
    "mint_trace",
]

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
    from-scratch numpy modules are not reentrant across threads), and
    the :class:`~repro.serve.batching.MicroBatcher` stacks concurrent
    windows into one sweep under it.
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
                model = CamAL(ensemble, self._default_scaler())
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
        self.started_at = time.time()

    def close(self) -> None:
        """Release held resources; the server calls this on shutdown."""
        self.registry.close()

    # -- the request wrapper ----------------------------------------------

    @contextlib.contextmanager
    def record(
        self, trace: "dict | None", route: str, tenant_id: object
    ) -> Iterator["_Record"]:
        """Open this response's completion record, or join the open one:
        as with ``obs.request``, the outermost opener (the HTTP handler,
        or :meth:`execute` called without HTTP) closes it, once."""
        active = _OPEN.get()
        if active is not None:
            yield active
            return
        rec = _Record(trace, route, _tenant_label(tenant_id))
        token = _OPEN.set(rec)
        try:
            with obs_context.bind(rec.ctx):
                yield rec
        finally:
            _OPEN.reset(token)
            self._complete(rec.close(), rec.session, rec.ctx)

    def _complete(self, record, session, ctx) -> None:
        """The one fan-out: every sink reads the same completion record
        (the tenant's SLO window, like the global one, only if admitted)."""
        if record.admitted:
            session.slo.record(record.duration_s, outcome=record.outcome)
        self.costs.charge(
            record.tenant, record.route, record.cpu_ms,
            windows=record.windows, duration_s=record.duration_s,
            outcome=record.outcome,
        )
        obs_context.complete(record, ctx.roots if ctx else ())

    def execute(
        self,
        route: str,
        tenant_id: str,
        thunk,
        admission_exempt: bool = False,
        trace: "dict | None" = None,
    ) -> tuple[int, dict, dict]:
        """Run one request through admission and its thunk.

        Returns ``(status, payload, headers)``, the headers carrying
        ``X-Request-Id`` + ``traceparent``. ``admission_exempt`` marks
        routes that must keep answering under overload. ``trace`` is
        the request's :func:`mint_trace` identity. Every return path
        writes its status and outcome into the request's completion
        record (:meth:`record`), so each response is billed once.
        """
        with self.record(trace, route, tenant_id) as rec:
            try:
                tenant = self.registry.get_or_create(tenant_id)
            except ValueError as err:
                return rec.answer(400, {"error": str(err)}, reason="bad_tenant_id")
            except OverflowError as err:
                # Registry exhaustion is overload, not caller error.
                payload = {"error": str(err)}
                return rec.answer(503, payload, "shed", "registry_full", "1")
            if not admission_exempt:
                decision = self.admission.decide(
                    tenant=tenant,
                    cost_share=self.costs.recent_share(tenant_id),
                )
                if not decision.accepted:
                    payload = {
                        "error": "overloaded; request shed",
                        "reason": decision.reason,
                        "retry_after_s": decision.retry_after_s,
                    }
                    return rec.answer(
                        503, payload, "shed", decision.reason,
                        f"{decision.retry_after_s:g}",
                    )
            # Admitted. Until the thunk answers the record reads
            # 500/error: an exception type we did not anticipate reaches
            # the HTTP layer's 500 handler billed as an error, never ok.
            rec.session = tenant
            try:
                with obs.span(f"serve.{route}", route=route, tenant=tenant_id):
                    try:
                        status, payload = thunk(tenant)
                    except ServiceError as err:
                        if err.status >= 500:
                            raise
                        # Handled 4xx: the caller's fault, answered
                        # correctly. client_error spends no error budget
                        # (obs.GOOD_OUTCOMES), so a client replaying bad
                        # requests cannot trip admission for everyone.
                        return rec.answer(err.status, err.payload)
                    except (
                        RobustError, ValueError, KeyError, OverflowError
                    ) as err:
                        return rec.answer(400, {"error": str(err)})
            except ServiceError as err:
                # 5xx ServiceErrors are genuine service failures.
                return rec.answer(err.status, err.payload)
            degraded = payload.get("verdict") in ("degraded", "failed")
            return rec.answer(status, payload, "degraded" if degraded else "ok")

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

    @staticmethod
    def _write_samples(tenant, house, watts, factor, write):
        """The one write path for house samples: under the tenant lock,
        413 (nothing written) if the ``planned`` resampled samples
        overflow the quota, else return ``write()``, which commits them.
        """
        with tenant.lock:
            planned = house.store.plan(watts.size, factor)
            if house.n_steps + planned > house.max_samples:
                raise ServiceError(
                    413,
                    f"house {house.house_id!r} holds {house.n_steps} of its "
                    f"{house.max_samples}-sample quota; this batch would "
                    f"commit {planned} samples and does not fit — delete "
                    "the house or create a new one",
                    n_steps=house.n_steps,
                    max_samples=house.max_samples,
                )
            result = write()
        if obs.enabled() and watts.size:
            obs.registry.counter(
                "serve.samples_ingested_total",
                help="watt samples appended through the ingest endpoint",
            ).inc(planned, tenant=tenant.tenant_id)
        return result

    def ingest(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        house = self._house(tenant, house_id)
        watts = _as_watts(body.get("watts"))
        if watts.size == 0:
            raise ServiceError(400, "watts (non-empty list) is required")
        n_steps = self._write_samples(
            tenant, house, watts, 1, lambda: house.ingest(watts)
        )
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
        committed = self._write_samples(
            tenant, house, watts, factor,
            lambda: house.append(watts, factor=factor),
        )
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
            "watts": _json_watts(window),
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
            _require_attached(house, appliance)
            start = body.get("start")
            length = body.get("length")
            start, length = _window_bounds(house, start, length)
            window = house.read_window(start, length)
        return appliance, window, start, length

    def _localize(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[dict, CamALResult, int]:
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
        base = {
            "house_id": house_id,
            "appliance": appliance,
            "start": start,
            "length": length,
            **_detection_fields(result),
            "cached": not computed,
        }
        return base, result, start

    def detect(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        base, _, _ = self._localize(tenant, house_id, body)
        return 200, base

    def localize(
        self, tenant: TenantSession, house_id: str, body: dict
    ) -> tuple[int, dict]:
        base, result, start = self._localize(tenant, house_id, body)
        return 200, {**base, **_status_fields(result, start)}

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
            _require_attached(house, appliance)
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
        return 200, {
            "house_id": house_id,
            "appliance": appliance,
            "start": loc.start,
            "length": loc.end - loc.start,
            "epoch": int(epoch),
            **_detection_fields(loc.result),
            "cached": not computed,
            "reuse": {
                "reused": loc.reused,
                "computed": loc.computed,
                "ratio": loc.reuse_ratio,
            },
            **_status_fields(loc.result, loc.start),
        }

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


#: The completion record open in this context (see
#: :meth:`DeviceScopeService.record`).
_OPEN: contextvars.ContextVar["_Record | None"] = contextvars.ContextVar(
    "repro_serve_record", default=None
)


def mint_trace(traceparent: object = None, tracestate: object = None) -> dict:
    """A request's trace identity, minted once for the whole request.

    A valid incoming ``traceparent`` is honored (its trace id reaches
    every span); a malformed one is ignored per the W3C spec and a
    fresh trace starts. ``headers`` go on every answer to the request,
    with a valid ``tracestate`` echoed untouched.
    """
    parsed = obs_context.parse_traceparent(traceparent)
    trace_id, parent_span_id = parsed or (obs_context.new_trace_id(), None)
    request_id = obs_context.new_request_id("serve")
    span_id_hex = obs_context.new_span_id_hex()
    headers = {
        "X-Request-Id": request_id,
        "traceparent": obs_context.format_traceparent(trace_id, span_id_hex),
    }
    state = obs_context.parse_tracestate(tracestate)
    if state is not None:
        headers["tracestate"] = state
    return {
        "request_id": request_id,
        "trace_id": trace_id,
        "parent_span_id": parent_span_id,
        "span_id_hex": span_id_hex,
        "headers": headers,
    }


def _tenant_label(tenant_id: object) -> str:
    """The tenant a response is billed to: the id if it is valid, else
    ``invalid`` — a raw id is unvalidated bytes, never a metrics label."""
    try:
        return TenantRegistry.validate_tenant_id(tenant_id)
    except ValueError:
        return "invalid"


class _Record:
    """A response's completion record while it is open: duration and
    CPU run from here to :meth:`close`; ``answer`` sets the status and
    outcome (500/``error`` until then), and ``execute`` sets ``session``
    once the request is admitted."""

    def __init__(self, trace: "dict | None", route: str, tenant: str):
        self.trace = trace or mint_trace()
        self.headers = self.trace["headers"]
        self.route, self.tenant = route, tenant
        self.status, self.outcome, self.reason = 500, "error", ""
        self.session: TenantSession | None = None
        self.ctx = obs_context.RequestContext(
            request_id=self.trace["request_id"],
            kind="serve",
            trace_id=self.trace["trace_id"],
            parent_span_id=self.trace["parent_span_id"],
            span_id_hex=self.trace["span_id_hex"],
        ) if obs.enabled() else None
        consume_work()  # drop any stale accumulator state on this thread
        self._start = time.perf_counter()
        self._cpu0 = time.thread_time()

    def answer(self, status, payload, outcome=None, reason="", retry_after=None):
        """Set the response's status and outcome (by default
        ``client_error`` for a 4xx, ``error`` for a 5xx); returns
        ``(status, payload, headers)`` for it."""
        outcome = outcome or ("client_error" if status < 500 else "error")
        self.status, self.outcome, self.reason = int(status), outcome, reason
        headers = dict(self.headers)
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        return self.status, payload, headers

    def close(self) -> obs_context.Completion:
        duration_s = time.perf_counter() - self._start
        share_ms, inline_ms, windows = consume_work()
        admitted = self.session is not None
        # Attributed CPU: what this thread burned, minus shared work it
        # executed on others' behalf (the batch leader's stacked sweep),
        # plus this request's fair share of shared work. A refusal is
        # billed none, so being shed never raises a tenant's cost share.
        cpu_ms = (time.thread_time() - self._cpu0) * 1e3 - inline_ms + share_ms
        return obs_context.Completion(
            self.trace["request_id"], self.trace["trace_id"], "serve",
            self.outcome, duration_s, route=self.route, tenant=self.tenant,
            status=self.status, cpu_ms=cpu_ms if admitted else 0.0,
            windows=windows if admitted else 0, reason=self.reason,
            admitted=admitted,
        )


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


def _json_watts(window: np.ndarray) -> list:
    """A float64 window as a JSON watts list (NaN → null).

    ``_as_watts``'s inverse: one ``tolist`` pass, then a ``None`` at each
    gap — the same floats and nulls as a per-sample ``isnan`` test, at a
    fraction of its cost.
    """
    watts = window.tolist()
    for i in np.flatnonzero(np.isnan(window)).tolist():
        watts[i] = None
    return watts


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


def _require_attached(house: TenantHouse, appliance) -> None:
    """409 unless ``appliance`` is attached to ``house`` (tenant lock held)."""
    if appliance not in house.devices:
        raise ServiceError(
            409,
            f"appliance {appliance!r} is not attached to "
            f"{house.house_id!r}; POST it to "
            f"/houses/{house.house_id}/devices first",
            attached=sorted(house.devices),
        )


def _detection_fields(result: CamALResult) -> dict:
    """Row 0's probability (NaN → ``None``), detection and verdict."""
    if result.degraded[0]:
        verdict = "degraded"
    elif result.repaired[0]:
        verdict = "repaired"
    else:
        verdict = "ok"
    probability = float(result.probabilities[0])
    return {
        "probability": None if np.isnan(probability) else probability,
        "detected": bool(result.detected[0]),
        "verdict": verdict,
    }


def _status_fields(result: CamALResult, start: int) -> dict:
    """Row 0's ON fraction and half-open ``[start, end)`` intervals in
    absolute sample indices; a degraded row localizes nothing."""
    if result.degraded[0]:
        return {"on_fraction": None, "intervals": []}
    on = result.status[0] > 0.5
    return {
        "on_fraction": float(on.mean()),
        "intervals": [[a + start, b + start] for a, b in _runs(on)],
    }


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) runs of True in a boolean vector."""
    padded = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    starts = np.flatnonzero(padded == 1)
    ends = np.flatnonzero(padded == -1)
    return list(zip(starts.tolist(), ends.tolist()))
