"""Per-tenant cost attribution and cost-aware admission.

The money contract: every request — including early rejects — is billed
to exactly one tenant and one route; batch leaders split sweep cost
across the rows they carried; the metrics surface per-tenant CPU-ms and
per-route latency; and a single heavy tenant sheds *alone* while light
tenants keep their 2xxs.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    AdmissionController,
    DeviceScopeService,
    TenantRegistry,
    build_server,
)
from repro.serve.service import ServiceError
from repro.serve.tenancy import CostLedger, bill_work, consume_work

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


class TestWorkAccumulator:
    def test_bill_then_consume_round_trips_and_clears(self):
        bill_work(cpu_share_ms=2.5, windows=1)
        bill_work(cpu_inline_ms=4.0, windows=2)
        assert consume_work() == (2.5, 4.0, 3)
        assert consume_work() == (0.0, 0.0, 0)


class TestCostLedger:
    def test_charge_accumulates_per_tenant_and_route(self):
        obs.enable()
        ledger = CostLedger()
        ledger.charge("a", "serve.detect", cpu_ms=10.0, windows=2,
                      duration_s=0.01, outcome="ok")
        ledger.charge("a", "serve.detect", cpu_ms=5.0, windows=1,
                      duration_s=0.01, outcome="ok")
        ledger.charge("b", "serve.localize", cpu_ms=1.0, windows=1,
                      duration_s=0.001, outcome="degraded")
        snap = ledger.snapshot()
        assert snap["tenants"]["a"]["cpu_ms"] == pytest.approx(15.0)
        assert snap["tenants"]["a"]["requests"] == 2
        assert snap["tenants"]["a"]["windows"] == 3
        assert snap["routes"]["serve.localize"]["requests"] == 1
        top = ledger.top_tenants()
        assert top[0]["tenant"] == "a"
        assert top[0]["share"] == pytest.approx(15.0 / 16.0)

    def test_recent_share_reflects_the_rolling_window(self):
        ledger = CostLedger(recent_window=4)
        for _ in range(4):
            ledger.charge("heavy", "r", cpu_ms=10.0)
        assert ledger.recent_share("heavy") == pytest.approx(1.0)
        for _ in range(4):
            ledger.charge("light", "r", cpu_ms=10.0)
        # Window is full of light's charges now.
        assert ledger.recent_share("heavy") == pytest.approx(0.0)
        assert ledger.recent_share("unknown") == 0.0

    def test_charge_emits_metrics_families(self):
        obs.enable()
        ledger = CostLedger()
        ledger.charge("a", "serve.detect", cpu_ms=3.0, windows=1,
                      duration_s=0.004, outcome="ok")
        text = obs.to_openmetrics(obs.registry.snapshot())
        assert "devicescope_tenant_cpu_ms_total" in text
        assert 'tenant="a"' in text
        assert "devicescope_route_seconds" in text
        assert "devicescope_route_requests_total" in text
        assert "devicescope_tenant_windows_swept_total" in text

    def test_reset_zeroes_everything(self):
        ledger = CostLedger()
        ledger.charge("a", "r", cpu_ms=1.0)
        ledger.reset()
        assert ledger.snapshot() == {"tenants": {}, "routes": {}}
        assert ledger.recent_share("a") == 0.0


class TestExecuteBilling:
    def test_request_cpu_is_billed_to_its_tenant_and_route(
        self, service, kettle_watts
    ):
        make_house(service, watts=kettle_watts)
        run(
            service, "devices.attach",
            lambda t: service.attach_device(t, "h1", {"appliance": "kettle"}),
        )
        status, _, _ = run(
            service, "serve.detect",
            lambda t: service.detect(
                t, "h1", {"appliance": "kettle", "start": 0, "length": 128}
            ),
        )
        assert status == 200
        snap = service.costs.snapshot()
        billed = snap["tenants"][TENANT]
        assert billed["cpu_ms"] > 0.0
        assert billed["windows"] == 1
        assert "serve.detect" in snap["routes"]

    def test_bad_tenant_id_is_billed_to_invalid_not_a_label_bomb(
        self, service
    ):
        status, _, headers = service.execute(
            "houses.list", "bad tenant!!", lambda t: (200, {})
        )
        assert status == 400
        assert headers["X-Request-Id"]
        snap = service.costs.snapshot()
        assert "invalid" in snap["tenants"]
        assert "bad tenant!!" not in snap["tenants"]

    def test_shed_requests_are_billed_with_zero_cpu(self, bank):
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=1),
        )
        obs.enable()
        for _ in range(64):
            obs.slo_tracker.record(10.0, outcome="error")
        status, _, headers = service.execute(
            "houses.list", TENANT, lambda t: (200, {})
        )
        assert status == 503
        assert headers["X-Request-Id"]
        billed = service.costs.snapshot()["tenants"][TENANT]
        assert billed["cpu_ms"] == 0.0 and billed["requests"] == 1

    def test_stale_thread_accumulator_never_leaks_across_requests(
        self, service
    ):
        bill_work(cpu_share_ms=1e6)  # poison the thread-local
        status, _, _ = run(service, "houses.list",
                           lambda t: (200, {"houses": {}}))
        assert status == 200
        billed = service.costs.snapshot()["tenants"][TENANT]
        assert billed["cpu_ms"] < 1e5  # the poison never reached the bill


class TestTenantAdmission:
    def test_heavy_tenant_sheds_alone_light_tenant_keeps_2xx(self, bank):
        """The acceptance criterion: one tenant burning its own SLO is
        shed while another tenant's traffic stays 2xx throughout."""
        obs.enable()
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            # Global gate effectively off; per-tenant gates live.
            admission=AdmissionController(
                min_requests=10_000, tenant_min_requests=8
            ),
        )

        def failing(t):
            raise ServiceError(500, "induced")

        for _ in range(12):
            service.execute("serve.detect", "heavy", failing)
        # Heavy is now hot: shed (503), not an attempted 500.
        heavy_statuses = [
            service.execute("serve.detect", "heavy", failing)[0]
            for _ in range(6)
        ]
        assert 503 in heavy_statuses
        assert all(s in (500, 503) for s in heavy_statuses)
        assert "heavy" in service.admission.shedding_tenants()
        # Light tenant's traffic is untouched the whole time.
        light_statuses = [
            service.execute(
                "houses.list", "light", lambda t: (200, {"houses": {}})
            )[0]
            for _ in range(10)
        ]
        assert light_statuses == [200] * 10

    def test_heavy_tenant_recovers_through_probes(self, bank):
        obs.enable()
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(
                min_requests=10_000,
                tenant_min_requests=8,
                probe_every=2,
                accept_streak=2,
            ),
        )

        def failing(t):
            raise ServiceError(500, "induced")

        for _ in range(12):
            service.execute("serve.detect", "heavy", failing)
        assert "heavy" in service.admission.shedding_tenants()
        # Simulate the backend healing: flood the tenant's SLO window
        # with healthy traffic so its burn rate drops below the accept
        # band, then let probe admissions observe it and readmit.
        heavy = service.registry.get("heavy")
        for _ in range(heavy.slo.window):
            heavy.slo.record(0.001, outcome="ok")
        statuses = [
            service.execute(
                "houses.list", "heavy", lambda t: (200, {"houses": {}})
            )[0]
            for _ in range(16)
        ]
        assert statuses[-1] == 200
        assert "heavy" not in service.admission.shedding_tenants()

    def test_cost_share_sheds_only_when_service_is_strained(self):
        class _Slo:
            def __init__(self):
                self.burn, self.count = 0.0, 0

            def snapshot(self):
                return {"burn_rate": self.burn, "count": self.count}

            def burn_rate(self):
                return self.burn, self.count

        class _Tenant:
            def __init__(self, tenant_id):
                self.tenant_id = tenant_id
                self.slo = _Slo()

        global_slo = _Slo()
        controller = AdmissionController(
            slo=global_slo, quality_status=lambda: "ok",
            min_requests=16, cost_share_shed=0.5,
        )
        hog = _Tenant("hog")
        # Healthy service: a 90% cost share alone is not a crime.
        assert controller.decide(tenant=hog, cost_share=0.9).accepted
        # Strained (burn above the accept band, below shed) + hog share:
        # the hog is shed first, with the cost reason.
        global_slo.burn, global_slo.count = 1.5, 64
        decision = controller.decide(tenant=hog, cost_share=0.9)
        assert not decision.accepted
        assert decision.reason == "tenant_cost"
        # A light tenant under the same strain keeps flowing.
        light = _Tenant("light")
        assert controller.decide(tenant=light, cost_share=0.05).accepted


class TestOperatorSurface:
    def test_health_exposes_costs_shedding_and_tenants(
        self, service, kettle_watts
    ):
        make_house(service, watts=kettle_watts)
        run(service, "houses.list", lambda t: (200, {}))
        status, health = service.health()
        assert status == 200
        assert "top_tenants" in health["costs"]
        assert "routes" in health["costs"]
        assert isinstance(health["shedding_tenants"], list)
        assert "entries" in health["flight"]

    def test_flight_payload_formats(self, service):
        status, payload = service.flight_payload()
        assert status == 200
        assert set(payload) == {"stats", "entries"}
        status, chrome = service.flight_payload("chrome")
        assert status == 200 and "traceEvents" in chrome
        with pytest.raises(ServiceError):
            service.flight_payload("nonsense")


class TestServerTeardown:
    def test_server_close_is_reentrant(self, bank):
        obs.enable()
        instance = build_server(bank=bank, service=DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=10_000),
        ))
        with instance.running():
            assert instance.service.health()[0] == 200
        # close is re-entrant: a second close must not raise.
        instance.service.close()
