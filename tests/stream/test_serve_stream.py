"""Streaming serve routes: ``POST .../append`` and ``GET
.../live_localize`` — request parsing, quota preservation at the exact
``MAX_HOUSE_SAMPLES`` boundary, and HTTP routing end-to-end.

The append route is the tenancy layer's only *incremental* write path,
so its edges matter: an empty batch is a heartbeat (200 no-op, epoch
unchanged), sub-block remainders carry between appends, and the 2M
house quota must reject with the same 413 contract as bulk ingest —
checked *before* any state mutates.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.nn.conv import TIME_TILE
from repro.serve import DeviceScopeService, build_server
from repro.serve.service import MAX_WINDOW_SAMPLES
from repro.serve.tenancy import MAX_HOUSE_SAMPLES

TENANT = "tenant-a"


def run(service, route, thunk, tenant=TENANT):
    return service.execute(route, tenant, thunk)


def make_house(service, house_id="h1", watts=(), step_s=60.0):
    status, payload, _ = run(
        service,
        "houses.create",
        lambda t: service.create_house(
            t,
            {
                "house_id": house_id,
                "watts": [float(w) for w in watts],
                "step_s": step_s,
            },
        ),
    )
    assert status == 201
    return payload


def append(service, house_id="h1", **body):
    return run(
        service,
        "houses.append",
        lambda t: service.append(t, house_id, body),
    )


class TestAppendParsing:
    def test_append_commits_and_reports_the_epoch(self, service):
        make_house(service, watts=np.arange(16.0))
        status, payload, _ = append(service, watts=[1.0, 2.0, 3.0])
        assert status == 200
        assert payload["received"] == 3 and payload["committed"] == 3
        assert payload["n_steps"] == 19 and payload["epoch"] == 19
        assert payload["pending"] == 0 and payload["factor"] == 1

    def test_empty_append_is_a_heartbeat_noop(self, service):
        make_house(service, watts=np.arange(8.0))
        status, payload, _ = append(service, watts=[])
        assert status == 200
        assert payload["committed"] == 0 and payload["epoch"] == 8

    def test_step_s_converts_to_a_factor(self, service):
        """A 15s-native batch against a 60s house grid resamples 4:1,
        with the sub-block remainder carried to the next append."""
        make_house(service, watts=np.arange(8.0), step_s=60.0)
        status, payload, _ = append(
            service, watts=[float(w) for w in range(10)], step_s=15
        )
        assert status == 200
        assert payload["factor"] == 4
        assert payload["committed"] == 2 and payload["pending"] == 2
        status, payload, _ = append(service, watts=[10.0, 11.0], factor=4)
        assert status == 200
        assert payload["committed"] == 1 and payload["pending"] == 0

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ({"watts": [1.0], "factor": 2, "step_s": 30}, "not both"),
            ({"watts": [1.0], "step_s": 0}, "positive"),
            ({"watts": [1.0], "step_s": "fast"}, "number"),
            ({"watts": [1.0], "step_s": 45}, "does not divide"),
            ({"watts": [1.0], "factor": 0}, "positive integer"),
            ({"watts": [1.0], "factor": True}, "positive integer"),
            ({"watts": [1.0], "factor": 2.5}, "positive integer"),
            ({"watts": "lots"}, "JSON array"),
        ],
    )
    def test_bad_requests_are_400(self, service, body, fragment):
        make_house(service, watts=np.arange(8.0))
        status, payload, _ = append(service, **body)
        assert status == 400
        assert fragment in payload["error"]

    def test_append_to_missing_house_is_404(self, service):
        status, _, _ = append(service, house_id="ghost", watts=[1.0])
        assert status == 404


class TestQuotaBoundary:
    def test_exact_fit_then_413_at_max_house_samples(self, service):
        """Fill the house to exactly MAX_HOUSE_SAMPLES via bulk ingest
        plus a boundary append: the last fitting batch lands, the next
        single sample is 413 with the ingest route's error contract."""
        make_house(service)
        fill = [100.0] * 1_000_000
        for _ in range(2):
            status, _, _ = run(
                service,
                "houses.ingest",
                lambda t: service.ingest(t, "h1", {"watts": fill[:999_997]}),
            )
            assert status == 200
        status, payload, _ = append(service, watts=[100.0] * 6)
        assert status == 200  # exactly at the 2M boundary
        assert payload["n_steps"] == MAX_HOUSE_SAMPLES
        status, payload, _ = append(service, watts=[100.0])
        assert status == 413
        assert payload["n_steps"] == MAX_HOUSE_SAMPLES
        assert payload["max_samples"] == MAX_HOUSE_SAMPLES
        # The rejected append mutated nothing: a sub-quota retry works
        # only after deleting — but a zero-commit append still passes.
        status, payload, _ = append(service, watts=[100.0], factor=2)
        assert status == 200 and payload["committed"] == 0

    def test_quota_rejection_leaves_pending_remainder_intact(self, service):
        make_house(service, watts=np.arange(8.0))
        house = service.registry.get(TENANT).houses["h1"]
        house.max_samples = 12
        status, payload, _ = append(service, watts=[1.0] * 7, factor=4)
        assert status == 200
        assert payload["committed"] == 1 and payload["pending"] == 3
        status, payload, _ = append(service, watts=[1.0] * 17, factor=4)
        assert status == 413
        status, payload, _ = append(service, watts=[1.0], factor=4)
        assert status == 200  # carried remainder completes one block
        assert payload["committed"] == 1 and payload["pending"] == 0


class TestLiveLocalizeRoute:
    def seed(self, service, n=256):
        rng = np.random.default_rng(7)
        watts = rng.uniform(80, 240, size=n) + 40.0
        watts[60:72] = 2600.0
        make_house(service, watts=watts)
        status, _, _ = run(
            service,
            "devices.attach",
            lambda t: service.attach_device(t, "h1", {"appliance": "kettle"}),
        )
        assert status in (200, 201)

    def live(self, service, appliance="kettle", window=64, house_id="h1"):
        return run(
            service,
            "houses.live_localize",
            lambda t: service.live_localize(t, house_id, appliance, window),
        )

    def test_live_localize_reports_absolute_intervals(self, service):
        self.seed(service)
        status, payload, _ = self.live(service, window=256)
        assert status == 200
        assert payload["start"] == 0 and payload["length"] == 256
        assert payload["verdict"] == "ok"
        assert payload["reuse"]["computed"] > 0
        for a, b in payload["intervals"]:
            assert 0 <= a < b <= 256

    def test_appliance_is_required_and_must_be_attached(self, service):
        self.seed(service)
        status, payload, _ = self.live(service, appliance=None)
        assert status == 400
        status, payload, _ = self.live(service, appliance="microwave")
        assert status == 409
        assert payload["attached"] == ["kettle"]

    def test_window_bounds_are_enforced(self, service):
        self.seed(service)
        for window in (TIME_TILE - 1, MAX_WINDOW_SAMPLES + 1, 0):
            status, _, _ = self.live(service, window=window)
            assert status == 400

    def test_too_few_samples_is_409(self, service):
        make_house(service, watts=[100.0])
        status, _, _ = run(
            service,
            "devices.attach",
            lambda t: service.attach_device(t, "h1", {"appliance": "kettle"}),
        )
        status, payload, _ = self.live(service)
        assert status == 409
        assert "ingest" in payload["error"]

    def test_reuse_after_append_through_the_service(self, service):
        # Fewer samples than the window: the base never slides, so the
        # second sync splices a large stable prefix instead of paying a
        # post-slide head re-sweep on a tiny tail window.
        self.seed(service, n=120)
        status, first, _ = self.live(service, window=128)
        assert status == 200 and first["cached"] is False
        status, _, _ = append(service, watts=[120.0] * 8)
        assert status == 200
        status, second, _ = self.live(service, window=128)
        assert status == 200
        assert second["cached"] is False
        assert second["reuse"]["reused"] > 0
        assert 0.0 < second["reuse"]["ratio"] <= 1.0

    def test_live_and_batch_routes_answer_the_same_window_alike(
        self, service
    ):
        self.seed(service)
        status, _, _ = append(service, watts=[2600.0] * 12 + [120.0] * 28)
        assert status == 200
        status, live, _ = self.live(service, window=128)
        assert status == 200 and live["start"] > 0
        status, batch, _ = run(
            service,
            "localize",
            lambda t: service.localize(
                t,
                "h1",
                {
                    "appliance": "kettle",
                    "start": live["start"],
                    "length": live["length"],
                },
            ),
        )
        assert status == 200
        for field in (
            "probability", "detected", "verdict", "on_fraction", "intervals"
        ):
            assert batch[field] == live[field], field


class TestHttpRoutes:
    """The two routes over a real socket, matching the PR 7 transport."""

    def rpc(self, base, method, path, body=None, tenant=TENANT):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(base + path, data=data, method=method)
        request.add_header("Content-Type", "application/json")
        request.add_header("X-Tenant-Id", tenant)
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_append_and_live_localize_over_http(self, bank):
        from repro.serve import AdmissionController, TenantRegistry

        server = build_server(
            bank=bank,
            service=DeviceScopeService(
                bank=bank,
                registry=TenantRegistry(),
                admission=AdmissionController(min_requests=10_000),
            ),
        )
        with server.running():
            base = server.url
            rng = np.random.default_rng(11)
            watts = (rng.uniform(80, 240, size=128) + 40.0).round(2)
            status, _ = self.rpc(
                base, "POST", "/houses",
                {"house_id": "h1", "watts": list(watts)},
            )
            assert status == 201
            status, _ = self.rpc(
                base, "POST", "/houses/h1/devices", {"appliance": "kettle"}
            )
            assert status in (200, 201)
            status, payload = self.rpc(
                base, "POST", "/houses/h1/append",
                {"watts": [2600.0] * 8, "factor": 2},
            )
            assert status == 200
            assert payload["committed"] == 4 and payload["epoch"] == 132
            status, payload = self.rpc(
                base, "GET", "/houses/h1/live_localize?appliance=kettle&window=64"
            )
            assert status == 200
            assert payload["start"] + payload["length"] == 132
            assert payload["verdict"] in ("ok", "repaired")
            status, payload = self.rpc(
                base, "GET", "/houses/h1/live_localize?window=64"
            )
            assert status == 400  # appliance is required
