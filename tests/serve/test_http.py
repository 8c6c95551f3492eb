"""Socket-level end-to-end tests: real ThreadingHTTPServer, real HTTP.

Covers the PR 7 acceptance criterion — ≥ 8 concurrent synthetic tenants
driven end-to-end (CRUD, ingest, detect, localize) while ``/metrics``
and ``/health`` stay live — plus transport edge cases (404/405, bad
JSON) and the overload contract (503 + ``Retry-After``, no crash).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.obs.slo import SloTracker
from repro.serve import (
    AdmissionController,
    DeviceScopeService,
    TenantRegistry,
    build_server,
)


def rpc(base, method, path, body=None, tenant=None, raw=None, timeout=60):
    """Tiny stdlib HTTP client; HTTP errors are data, not exceptions."""
    data = raw if raw is not None else (
        None if body is None else json.dumps(body).encode("utf-8")
    )
    request = urllib.request.Request(base + path, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if tenant is not None:
        request.add_header("X-Tenant-Id", tenant)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, payload, headers = (
                response.status,
                response.read(),
                dict(response.headers),
            )
    except urllib.error.HTTPError as err:
        status, payload, headers = err.code, err.read(), dict(err.headers)
    if "json" in headers.get("Content-Type", ""):
        payload = json.loads(payload)
    else:
        payload = payload.decode("utf-8")
    return status, payload, headers


@pytest.fixture
def server(bank):
    instance = build_server(bank=bank, service=DeviceScopeService(
        bank=bank,
        registry=TenantRegistry(),
        admission=AdmissionController(min_requests=10_000),
    ))
    with instance.running():
        yield instance


def seed_watts(n=256):
    rng = np.random.default_rng(11)
    watts = (rng.uniform(80, 240, size=n) + 40.0).round(2)
    watts[60:72] = 2600.0
    return [float(w) for w in watts]


class TestRouting:
    def test_unknown_route_is_404(self, server):
        status, payload, _ = rpc(server.url, "GET", "/nope")
        assert status == 404 and "error" in payload

    def test_wrong_method_is_405(self, server):
        status, payload, _ = rpc(server.url, "DELETE", "/houses")
        assert status == 405 and "not allowed" in payload["error"]

    def test_invalid_json_body_is_400(self, server):
        status, payload, _ = rpc(
            server.url, "POST", "/houses", raw=b"{not json"
        )
        assert status == 400 and "invalid JSON" in payload["error"]

    def test_non_object_body_is_400(self, server):
        status, payload, _ = rpc(server.url, "POST", "/houses", raw=b"[1]")
        assert status == 400 and "object" in payload["error"]

    def test_tenant_from_query_parameter(self, server):
        status, _, _ = rpc(
            server.url, "POST", "/houses?tenant=querytenant",
            body={"house_id": "q1"},
        )
        assert status == 201
        status, listing, _ = rpc(
            server.url, "GET", "/houses?tenant=querytenant"
        )
        assert list(listing["houses"]) == ["q1"]
        _, other, _ = rpc(server.url, "GET", "/houses", tenant="someone-else")
        assert other["houses"] == {}


class TestEndToEnd:
    def test_single_tenant_lifecycle(self, server):
        obs.enable()
        base, tenant = server.url, "e2e"
        status, house, _ = rpc(
            base, "POST", "/houses",
            body={"house_id": "h1", "watts": seed_watts()}, tenant=tenant,
        )
        assert status == 201 and house["n_steps"] == 256
        status, _, _ = rpc(
            base, "POST", "/houses/h1/ingest",
            body={"watts": [100.0, None, 120.0]}, tenant=tenant,
        )
        assert status == 200
        status, devices, _ = rpc(
            base, "POST", "/houses/h1/devices",
            body={"appliance": "kettle"}, tenant=tenant,
        )
        assert status == 201
        status, detected, _ = rpc(
            base, "POST", "/houses/h1/detect",
            body={"appliance": "kettle", "start": 0, "length": 128},
            tenant=tenant,
        )
        assert status == 200
        assert detected["verdict"] == "ok"
        assert isinstance(detected["probability"], float)
        status, localized, _ = rpc(
            base, "POST", "/houses/h1/localize",
            body={"appliance": "kettle", "start": 0, "length": 128},
            tenant=tenant,
        )
        assert status == 200 and localized["cached"] is True
        status, series, _ = rpc(
            base, "GET", "/houses/h1/series?start=256&length=3",
            tenant=tenant,
        )
        assert status == 200
        assert series["watts"] == [100.0, None, 120.0]
        status, _, _ = rpc(
            base, "DELETE", "/houses/h1/devices/kettle", tenant=tenant
        )
        assert status == 200
        status, _, _ = rpc(base, "DELETE", "/houses/h1", tenant=tenant)
        assert status == 200
        status, listing, _ = rpc(base, "GET", "/houses", tenant=tenant)
        assert listing["houses"] == {}

    def test_appliances_lists_the_bank(self, server):
        status, payload, _ = rpc(server.url, "GET", "/appliances")
        assert status == 200
        assert "kettle" in payload["appliances"]

    def test_metrics_is_openmetrics(self, server):
        obs.enable()
        rpc(server.url, "GET", "/houses", tenant="m")
        # The request's completion record is fanned out after its body
        # is written, so the first scrape can race it: re-read until the
        # counter appears, within a bounded deadline.
        deadline = time.monotonic() + 5.0
        while True:
            status, text, headers = rpc(server.url, "GET", "/metrics")
            if "obs_requests_total" in text or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        assert text.endswith("# EOF\n")
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        assert "obs_requests_total" in text

    def test_health_is_live_json(self, server):
        status, payload, _ = rpc(server.url, "GET", "/health")
        assert status == 200
        assert payload["status"] in ("ok", "degraded", "critical")
        assert payload["uptime_s"] >= 0


class TestOverload:
    def test_overload_returns_503_not_a_crash(self, bank):
        obs.enable()
        slo = SloTracker(objective_ms=250.0, error_budget=0.01, window=64)
        for _ in range(32):
            slo.record(10.0, outcome="error")
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(
                slo=slo, min_requests=16, probe_every=1000
            ),
        )
        with build_server(bank=bank, service=service).running() as server:
            status, payload, headers = rpc(
                server.url, "POST", "/houses", body={"house_id": "h1"},
                tenant="t",
            )
            assert status == 503
            assert payload["reason"] == "slo_burn"
            assert "Retry-After" in headers
            # The operator plane stays live while user traffic sheds.
            status, health, _ = rpc(server.url, "GET", "/health")
            assert status == 200
            assert health["shedding"] is True
            status, text, _ = rpc(server.url, "GET", "/metrics")
            assert status == 200 and text.endswith("# EOF\n")
            # And the server keeps answering — no thread died.
            status, _, _ = rpc(server.url, "GET", "/houses", tenant="t")
            assert status == 503


class TestConcurrentTenants:
    N_TENANTS = 8

    def test_eight_tenants_end_to_end_with_live_operator_plane(self, server):
        """The PR acceptance run: 8 synthetic tenants in parallel."""
        obs.enable()
        base = server.url
        watts = seed_watts()
        failures: list[str] = []
        barrier = threading.Barrier(self.N_TENANTS)

        def drive(tenant: str) -> None:
            try:
                barrier.wait(timeout=30)
                status, _, _ = rpc(
                    base, "POST", "/houses",
                    body={"house_id": f"home-{tenant}"}, tenant=tenant,
                )
                assert status == 201, f"create {status}"
                status, _, _ = rpc(
                    base, "POST", f"/houses/home-{tenant}/ingest",
                    body={"watts": watts}, tenant=tenant,
                )
                assert status == 200, f"ingest {status}"
                status, _, _ = rpc(
                    base, "POST", f"/houses/home-{tenant}/devices",
                    body={"appliance": "kettle"}, tenant=tenant,
                )
                assert status == 201, f"attach {status}"
                body = {"appliance": "kettle", "start": 0, "length": 128}
                status, detected, _ = rpc(
                    base, "POST", f"/houses/home-{tenant}/detect",
                    body=body, tenant=tenant,
                )
                assert status == 200, f"detect {status}"
                assert detected["verdict"] == "ok"
                status, localized, _ = rpc(
                    base, "POST", f"/houses/home-{tenant}/localize",
                    body=body, tenant=tenant,
                )
                assert status == 200, f"localize {status}"
                assert localized["cached"] is True, "window cache missed"
                status, listing, _ = rpc(
                    base, "GET", "/houses", tenant=tenant
                )
                assert list(listing["houses"]) == [f"home-{tenant}"], (
                    f"isolation breach: {listing}"
                )
            except Exception as err:  # collected, not swallowed
                failures.append(f"{tenant}: {err!r}")

        threads = [
            threading.Thread(target=drive, args=(f"tenant-{i}",))
            for i in range(self.N_TENANTS)
        ]
        for t in threads:
            t.start()
        # Operator plane stays live *while* the fleet hammers the API.
        live_checks = 0
        while any(t.is_alive() for t in threads):
            status, payload, _ = rpc(base, "GET", "/health", timeout=30)
            assert status == 200
            assert payload["status"] in ("ok", "degraded", "critical")
            status, _, _ = rpc(base, "GET", "/metrics", timeout=30)
            assert status == 200
            live_checks += 1
        for t in threads:
            t.join(timeout=60)
        assert not failures, "\n".join(failures)
        assert live_checks >= 1
        # Every tenant's traffic landed in its own SLO window.
        status, health, _ = rpc(base, "GET", "/health")
        tenants = health["tenants"]
        for i in range(self.N_TENANTS):
            assert tenants[f"tenant-{i}"]["slo"]["count"] >= 5


def test_build_server_plumbs_slo_objective_to_tenants():
    """Regression: ``--objective-ms`` used to reach only the global
    tracker while per-tenant trackers kept the hard-coded 250 ms."""
    server = build_server(port=0, slo_objective_ms=1234.0)
    try:
        session = server.service.registry.get_or_create("tenant-a")
        assert session.slo.objective_ms == 1234.0
    finally:
        server.server_close()
