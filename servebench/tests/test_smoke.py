"""A tiny run of each workload end to end: zero failed ops, checks pass."""

import pytest

from servebench.harness import run_workload
from servebench.workloads import Sizes

TINY = Sizes(browse_days=2, browse_views=20, live_houses=4, live_history_days=1, ingest_days=14)


@pytest.mark.parametrize("workload", ["browse", "live", "ingest"])
def test_tiny_run_has_no_failures(workload):
    out = run_workload(workload, seed=1, seconds=1.0, trace=False, sizes=TINY, warmup_ops_s=0.5)
    result, details = out["result"], out["details"]
    assert result["attempted"] > 0
    assert result["failed"] == 0, details.get("failure_examples")
    assert details["setup"]["failed"] == 0
    assert details["replay"]["checked"] > 0
    assert details["replay"]["mismatches"] == []
    assert len(details["setup_s_samples"]) >= 5
    assert all(m["value"] > 0 for m in result["metrics"].values())
    warmup = details["warmup"]
    assert warmup["failed"] == 0 and warmup["attempted"] > 0
    # The timed phase starts with the service's SLO window full.
    assert warmup["slo_window_fill"] == warmup["slo_window"]
    if workload == "browse":
        probe = details["outage_probe"]
        assert probe["page_views"] == 2 and probe["problems"] == []


def test_tiny_traced_run_reports_every_layer_metric():
    out = run_workload("live", seed=1, seconds=1.0, trace=True, sizes=TINY, warmup_ops_s=0.5)
    metrics = out["result"]["metrics"]
    assert out["result"]["failed"] == 0
    assert metrics["serve.batching.calls"]["value"] == 0
    assert metrics["core.camal.windows_total"]["value"] == 0
    assert metrics["stream.sliding.localize_ms"]["value"] > 0
    assert metrics["stream.live.samples_committed"]["value"] > 0
    assert "obs.trace_overhead_pct" in metrics
