"""Satellite-4 regression: the CLI and serve ``/health`` must agree.

Before PR 7 the CLI (``obs --watch`` / ``faultcheck``) derived health
from the **global** registry only, so a serve tenant burning its own
per-tenant SLO could answer ``critical`` over HTTP while the CLI
printed ``OK``. ``repro.app.session.process_status()`` is now the
single source of truth; these tests pin both consumers to it.
"""

from repro import obs
from repro.app.cli import _derived_status
from repro.app.session import process_status
from repro.serve import (
    AdmissionController,
    DeviceScopeService,
    TenantRegistry,
    build_server,
    tenant_trackers,
)


def burn(tracker, errors=32):
    for _ in range(errors):
        tracker.record(10.0, outcome="error")


class TestProcessStatus:
    def test_clean_process_is_ok(self):
        assert process_status() == "ok"

    def test_tenant_burn_escalates_process_status(self):
        registry = TenantRegistry()
        tenant = registry.get_or_create("burning")
        assert process_status() == "ok"  # empty tenant window: no signal
        burn(tenant.slo)
        # Global obs state is untouched, yet the process is critical.
        assert obs.slo_tracker.snapshot()["count"] == 0
        assert process_status() == "critical"
        registry.drop("burning")
        assert process_status() == "ok"

    def test_closed_server_leaves_process_health(self, bank):
        """Closing a server unregisters its tenants at once — without a
        garbage-collector pass, and while the server is still held."""
        server = build_server(bank=bank, service=DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=10_000),
        ))
        with server.running():
            burn(server.service.registry.get_or_create("closed-burner").slo)
            assert "closed-burner" in dict(tenant_trackers())
        assert "closed-burner" not in dict(tenant_trackers())

    def test_cli_and_serve_health_agree_under_tenant_burn(self, bank):
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=10_000),
        )
        tenant = service.registry.get_or_create("burning")
        burn(tenant.slo)
        _, health = service.health()
        # One fact, three read paths: HTTP /health, the CLI status
        # line, and the shared derivation they both call.
        assert health["status"] == "critical"
        assert _derived_status() == "critical"
        assert process_status() == "critical"

    def test_cli_and_serve_health_agree_when_global_is_critical(self, bank):
        obs.enable()
        burn(obs.slo_tracker)
        try:
            service = DeviceScopeService(
                bank=bank,
                registry=TenantRegistry(),
                admission=AdmissionController(min_requests=10_000),
            )
            _, health = service.health()
            assert health["status"] == "critical"
            assert _derived_status() == health["status"]
        finally:
            obs.reset()

    def test_degraded_tenant_does_not_mask_critical_global(self, bank):
        obs.enable()
        registry = TenantRegistry()
        tenant = registry.get_or_create("slowish")
        # Tenant misses the objective on 1.5% of requests: over the 1%
        # budget (unhealthy) but under the 2x fast-burn page (degraded,
        # not critical).
        for i in range(400):
            duration = 10.0 if i < 6 else 0.01
            tenant.slo.record(duration, outcome="ok")
        assert process_status() == "degraded"
        # …then the global window goes critical: worst-of wins.
        burn(obs.slo_tracker)
        try:
            assert process_status() == "critical"
        finally:
            obs.reset()

    def test_faultcheck_output_reflects_tenant_burn(self, bank, capsys):
        """The actual CLI command prints the serve-aware status."""
        from repro.app import cli

        registry = TenantRegistry()
        tenant = registry.get_or_create("burning")
        burn(tenant.slo)
        cli.main(["faultcheck", "--fast", "--seed", "1"])
        out = capsys.readouterr().out
        assert "health status: CRITICAL" in out
