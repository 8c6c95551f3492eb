"""Service-layer semantics, transport-free: CRUD, ingestion, inference
through the cache, and the shed / degraded cache-exclusion contracts."""

import gc

import numpy as np
import pytest

from repro import obs
from repro.obs import flight
from repro.obs.slo import SloTracker
from repro.obs.tracing import Span
from repro.serve import AdmissionController, DeviceScopeService, TenantRegistry
from repro.serve.service import ServiceError

TENANT = "tenant-a"


def run(service, route, thunk, tenant=TENANT, exempt=False):
    return service.execute(route, tenant, thunk, admission_exempt=exempt)


def make_house(service, tenant=TENANT, house_id="h1", watts=None):
    status, payload, _ = run(
        service,
        "houses.create",
        lambda t: service.create_house(
            t,
            {
                "house_id": house_id,
                "watts": [] if watts is None else [float(w) for w in watts],
            },
        ),
        tenant=tenant,
    )
    assert status == 201
    return payload


def attach(service, tenant=TENANT, house_id="h1", appliance="kettle"):
    status, _, _ = run(
        service,
        "devices.attach",
        lambda t: service.attach_device(t, house_id, {"appliance": appliance}),
        tenant=tenant,
    )
    assert status in (200, 201)


class TestCrud:
    def test_create_list_get_delete(self, service):
        make_house(service, watts=np.arange(16.0))
        status, listing, _ = run(
            service, "houses.list", lambda t: service.list_houses(t)
        )
        assert status == 200 and "h1" in listing["houses"]
        status, summary, _ = run(
            service, "houses.get", lambda t: service.get_house(t, "h1")
        )
        assert status == 200 and summary["n_steps"] == 16
        status, _, _ = run(
            service, "houses.delete", lambda t: service.delete_house(t, "h1")
        )
        assert status == 200
        status, payload, _ = run(
            service, "houses.get", lambda t: service.get_house(t, "h1")
        )
        assert status == 404 and "error" in payload

    def test_duplicate_house_conflicts(self, service):
        make_house(service)
        status, payload, _ = run(
            service,
            "houses.create",
            lambda t: service.create_house(t, {"house_id": "h1"}),
        )
        assert status == 409

    def test_create_requires_house_id(self, service):
        status, payload, _ = run(
            service, "houses.create", lambda t: service.create_house(t, {})
        )
        assert status == 400

    def test_bad_tenant_id_is_rejected(self, service):
        status, payload, _ = run(
            service, "houses.list", lambda t: service.list_houses(t),
            tenant="no spaces allowed",
        )
        assert status == 400


class TestIngestion:
    def test_ingest_appends_and_counts(self, service):
        obs.enable()
        make_house(service)
        status, payload, _ = run(
            service,
            "ingest",
            lambda t: service.ingest(t, "h1", {"watts": [1.0, 2.0, None]}),
        )
        assert status == 200
        assert payload["appended"] == 3 and payload["n_steps"] == 3
        snapshot = obs.registry.snapshot()
        series = snapshot["serve.samples_ingested_total"]["series"]
        assert sum(s["value"] for s in series) == 3

    def test_ingest_validates_payload(self, service):
        make_house(service)
        for bad in ({}, {"watts": []}, {"watts": "nope"}, {"watts": ["x"]}):
            status, _, _ = run(
                service, "ingest", lambda t: service.ingest(t, "h1", bad)
            )
            assert status == 400

    def test_series_roundtrip_with_nan_as_null(self, service, kettle_watts):
        watts = kettle_watts.copy()
        watts[3] = np.nan
        make_house(service, watts=watts)
        status, payload, _ = run(
            service, "series", lambda t: service.series(t, "h1", 0, 8)
        )
        assert status == 200
        assert payload["watts"][3] is None
        assert payload["watts"][0] == pytest.approx(watts[0])


class TestInference:
    def test_detect_requires_attached_device(self, service, kettle_watts):
        make_house(service, watts=kettle_watts)
        status, payload, _ = run(
            service,
            "detect",
            lambda t: service.detect(t, "h1", {"appliance": "kettle"}),
        )
        assert status == 409
        assert "not attached" in payload["error"]

    def test_detect_then_cached_localize(self, service, kettle_watts):
        make_house(service, watts=kettle_watts)
        attach(service)
        body = {"appliance": "kettle", "start": 0, "length": 128}
        status, detect, _ = run(
            service, "detect", lambda t: service.detect(t, "h1", body)
        )
        assert status == 200
        assert detect["verdict"] == "ok"
        assert detect["cached"] is False
        assert 0.0 <= detect["probability"] <= 1.0
        status, localized, _ = run(
            service, "localize", lambda t: service.localize(t, "h1", body)
        )
        assert status == 200
        assert localized["cached"] is True  # same window, same model
        assert isinstance(localized["intervals"], list)
        assert localized["on_fraction"] is not None
        for interval_start, interval_end in localized["intervals"]:
            assert 0 <= interval_start < interval_end <= 128

    def test_tenants_have_disjoint_caches(self, service, kettle_watts):
        body = {"appliance": "kettle", "start": 0, "length": 128}
        for tenant in ("tenant-a", "tenant-b"):
            make_house(service, tenant=tenant, watts=kettle_watts)
            attach(service, tenant=tenant)
        _, first, _ = run(
            service, "detect", lambda t: service.detect(t, "h1", body),
            tenant="tenant-a",
        )
        _, second, _ = run(
            service, "detect", lambda t: service.detect(t, "h1", body),
            tenant="tenant-b",
        )
        # Identical window + shared model, but tenant-b's cache was
        # cold: its request recomputed instead of reading a's entry.
        assert first["cached"] is False
        assert second["cached"] is False

    def test_degraded_window_is_answered_but_never_cached(
        self, service, kettle_watts
    ):
        watts = kettle_watts.copy()
        watts[10:100] = np.nan  # beyond any repair budget
        make_house(service, watts=watts)
        attach(service)
        body = {"appliance": "kettle", "start": 0, "length": 128}
        status, payload, _ = run(
            service, "detect", lambda t: service.detect(t, "h1", body)
        )
        assert status == 200
        assert payload["verdict"] == "degraded"
        assert payload["probability"] is None
        assert payload["detected"] is False
        cache = service.registry.get(TENANT).cache
        assert len(cache) == 0
        assert cache.stats()["rejected"] == 1
        # A second identical request recomputes — no poisoned hit.
        status, again, _ = run(
            service, "detect", lambda t: service.detect(t, "h1", body)
        )
        assert again["cached"] is False

    def test_degraded_marks_request_and_tenant_slo(self, service, kettle_watts):
        obs.enable()
        watts = kettle_watts.copy()
        watts[10:100] = np.nan
        make_house(service, watts=watts)
        attach(service)
        body = {"appliance": "kettle", "start": 0, "length": 128}
        run(service, "detect", lambda t: service.detect(t, "h1", body))
        tenant_slo = service.registry.get(TENANT).slo.snapshot()
        assert tenant_slo["outcomes"].get("degraded", 0) >= 1
        counters = obs.registry.snapshot()["obs.requests_total"]["series"]
        assert any(
            s["labels"].get("outcome") == "degraded" for s in counters
        )

    def test_window_bounds_validation(self, service, kettle_watts):
        make_house(service, watts=kettle_watts)
        attach(service)
        for body in (
            {"appliance": "kettle", "start": 0, "length": 100_000},
            {"appliance": "kettle", "start": -1, "length": 16},
            {"appliance": "kettle", "start": 250, "length": 64},
            {"appliance": "kettle", "length": 1},
        ):
            status, _, _ = run(
                service, "detect", lambda t: service.detect(t, "h1", body)
            )
            assert status == 400

    def test_empty_house_conflicts(self, service):
        make_house(service)
        attach(service)
        status, payload, _ = run(
            service,
            "detect",
            lambda t: service.detect(t, "h1", {"appliance": "kettle"}),
        )
        assert status == 409
        assert "ingest" in payload["error"]


class TestClientErrorBudget:
    """Regression: handled 4xx used to be billed as outcome="error" in
    both the global and tenant SLO trackers, so ~16 bad requests from
    one client drove the burn rate past the shed threshold and took
    down service for every tenant."""

    def test_client_4xx_spends_no_error_budget(self, service):
        obs.enable()
        obs.reset()
        for _ in range(32):
            status, _, _ = run(
                service, "houses.get", lambda t: service.get_house(t, "nope")
            )
            assert status == 404
        tenant_slo = service.registry.get(TENANT).slo.snapshot()
        assert tenant_slo["outcomes"] == {"client_error": 32}
        assert tenant_slo["attainment"] == 1.0
        assert tenant_slo["burn_rate"] == 0.0
        global_slo = obs.slo_tracker.snapshot()
        assert global_slo["outcomes"].get("client_error") == 32
        assert global_slo["burn_rate"] == 0.0
        # Far past min_requests, admission still accepts everyone.
        admission = AdmissionController(min_requests=16)
        assert admission.decide().accepted

    def test_engine_validation_errors_are_client_errors(self, service):
        obs.enable()
        obs.reset()
        make_house(service)

        def bad(t):
            raise ValueError("start must be >= 0")

        status, _, _ = run(service, "series", bad)
        assert status == 400
        tenant_slo = service.registry.get(TENANT).slo.snapshot()
        assert tenant_slo["outcomes"].get("client_error") == 1

    def test_5xx_service_error_spends_budget(self, service):
        obs.enable()
        obs.reset()

        def fail(t):
            raise ServiceError(503, "backend exploded")

        status, payload, _ = run(service, "detect", fail)
        assert status == 503
        tenant_slo = service.registry.get(TENANT).slo.snapshot()
        assert tenant_slo["outcomes"].get("error") == 1
        assert obs.slo_tracker.snapshot()["outcomes"].get("error") == 1

    def test_unexpected_exception_bills_error_to_both_trackers(self, service):
        # Regression: exception types outside the handled tuple used to
        # record outcome="ok" into the tenant tracker while the global
        # scope recorded "error" — tenant and global health disagreed.
        obs.enable()
        obs.reset()

        def boom(t):
            raise TypeError("unhashable body value")

        with pytest.raises(TypeError):
            run(service, "houses.list", boom)
        tenant_slo = service.registry.get(TENANT).slo.snapshot()
        assert tenant_slo["outcomes"] == {"error": 1}
        assert obs.slo_tracker.snapshot()["outcomes"].get("error") == 1


class TestQuotas:
    def test_ingest_past_house_quota_is_413(self, service):
        make_house(service)
        house = service.registry.get(TENANT).houses["h1"]
        house.max_samples = 16
        status, _, _ = run(
            service,
            "ingest",
            lambda t: service.ingest(t, "h1", {"watts": [1.0] * 12}),
        )
        assert status == 200
        status, payload, _ = run(
            service,
            "ingest",
            lambda t: service.ingest(t, "h1", {"watts": [1.0] * 8}),
        )
        assert status == 413
        assert payload["max_samples"] == 16
        assert house.n_steps == 12  # the rejected batch appended nothing

    def test_houses_per_tenant_cap_is_429(self, service):
        make_house(service, house_id="h1")
        tenant = service.registry.get(TENANT)
        tenant.max_houses = 2
        make_house(service, house_id="h2")
        status, payload, _ = run(
            service,
            "houses.create",
            lambda t: service.create_house(t, {"house_id": "h3"}),
        )
        assert status == 429
        assert "delete one" in payload["error"]
        # Deleting a house frees the slot.
        run(service, "houses.delete", lambda t: service.delete_house(t, "h1"))
        make_house(service, house_id="h3")


class TestShedContract:
    def make_shedding_service(self, bank):
        slo = SloTracker(objective_ms=250.0, error_budget=0.01)
        for _ in range(32):
            slo.record(10.0, outcome="error")
        admission = AdmissionController(
            slo=slo, min_requests=16, probe_every=1000
        )
        return DeviceScopeService(
            bank=bank, registry=TenantRegistry(), admission=admission
        )

    def test_shed_requests_are_counted_but_never_cached(
        self, bank, kettle_watts
    ):
        obs.enable()
        obs.reset()
        obs.registry.clear()
        # Warm a healthy service first so the tenant + house exist.
        healthy = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=10_000),
        )
        make_house(healthy, watts=kettle_watts)
        attach(healthy)
        shedding = DeviceScopeService(
            bank=bank,
            registry=healthy.registry,
            admission=self.make_shedding_service(bank).admission,
        )
        body = {"appliance": "kettle", "start": 0, "length": 128}
        tenant = shedding.registry.get(TENANT)
        slo_before = len(tenant.slo)
        cache_before = tenant.cache.stats()
        status, payload, headers = run(
            shedding, "detect", lambda t: shedding.detect(t, "h1", body)
        )
        assert status == 503
        assert "Retry-After" in headers
        assert payload["reason"] == "slo_burn"
        stats = tenant.cache.stats()
        # Never cached — not even a lookup: the engine was never reached.
        assert stats["hits"] == cache_before["hits"]
        assert stats["misses"] == cache_before["misses"]
        assert len(tenant.cache) == 0
        # Never billed to the SLO window (the request was not admitted)…
        assert len(tenant.slo) == slo_before
        # …but fully counted in obs.
        snapshot = obs.registry.snapshot()
        shed = snapshot["serve.requests_shed_total"]["series"]
        assert sum(s["value"] for s in shed) == 1
        assert obs.log.events("serve.shed")

    def test_exempt_routes_bypass_admission(self, bank, kettle_watts):
        service = self.make_shedding_service(bank)
        status, payload, _ = run(
            service, "health", lambda t: service.health(), exempt=True
        )
        assert status == 200


class TestHealthPayload:
    def test_health_lists_tenants_and_slo(self, service, kettle_watts):
        obs.enable()
        make_house(service, watts=kettle_watts)
        attach(service)
        body = {"appliance": "kettle", "start": 0, "length": 128}
        run(service, "detect", lambda t: service.detect(t, "h1", body))
        status, payload = service.health()
        assert status == 200
        assert payload["status"] in ("ok", "degraded", "critical")
        assert TENANT in payload["tenants"]
        tenant_section = payload["tenants"][TENANT]
        assert tenant_section["slo"]["count"] >= 1
        assert "h1" in tenant_section["houses"]
        assert payload["shedding"] is False

    def test_metrics_text_is_openmetrics(self, service, kettle_watts):
        obs.enable()
        make_house(service, watts=kettle_watts)
        attach(service)
        body = {"appliance": "kettle", "start": 0, "length": 128}
        run(service, "detect", lambda t: service.detect(t, "h1", body))
        text = service.metrics_text()
        assert text.endswith("# EOF\n")
        assert "obs_requests_total" in text
        assert "devicescope_slo" in text


def _live_spans() -> int:
    gc.collect()
    return sum(isinstance(o, Span) for o in gc.get_objects())


def test_serving_retains_no_span_trees(service, kettle_watts, monkeypatch):
    """With no capture open, a served request's span trees live only as
    long as its request: the flight recorder judges them and keeps at
    most a serialized copy. (``Span`` has ``__slots__`` and no
    ``__weakref__``, so live spans are counted through the collector.)"""
    monkeypatch.setattr(
        flight, "recorder", flight.FlightRecorder(sample_rate=0.0)
    )
    obs.enable()
    make_house(service, watts=kettle_watts)
    attach(service)

    def localize(i):
        body = {"appliance": "kettle", "start": i % 64, "length": 128}
        status, _, _ = run(
            service, "localize", lambda t: service.localize(t, "h1", body)
        )
        assert status == 200

    for i in range(5):
        localize(i)
    after_warmup = _live_spans()
    for i in range(5, 55):
        localize(i)
    assert flight.recorder.stats()["seen"] >= 55
    assert _live_spans() <= after_warmup


def test_service_error_payload():
    err = ServiceError(418, "teapot", hint="stout")
    assert err.status == 418
    assert err.payload == {"error": "teapot", "hint": "stout"}
