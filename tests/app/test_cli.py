"""Tests for the DeviceScope CLI (invoked in-process, --fast mode)."""

import pytest

from repro.app.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_profile():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["browse", "--profile", "redd"])


def test_parser_rejects_unknown_appliance():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "--appliance", "toaster"])


def test_browse_fast_runs(capsys):
    code = main(["browse", "--fast", "--pages", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "browsing house" in out
    assert "aggregate" in out
    assert "kettle" in out


def test_demo_fast_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.html"
    code = main(
        ["demo", "--fast", "--pages", "2", "--out", str(out_path), "--seed", "1"]
    )
    assert code == 0
    html = out_path.read_text()
    assert "<svg" in html
    assert "Model detection probabilities" in html


def test_benchmark_fast_prints_tables(capsys):
    code = main(
        ["benchmark", "--fast", "--methods", "mil", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "detection" in out
    assert "localization" in out
    assert "CamAL" in out
    assert "MIL (weak)" in out


def test_benchmark_save_and_report_roundtrip(tmp_path, capsys):
    save_dir = tmp_path / "results"
    code = main([
        "benchmark", "--fast", "--methods", "mil", "--seed", "1",
        "--save", str(save_dir),
    ])
    assert code == 0
    assert any(save_dir.glob("benchmark_*.json"))
    out_html = tmp_path / "report.html"
    code = main(["report", str(save_dir), "--out", str(out_html)])
    assert code == 0
    html = out_html.read_text()
    assert "CamAL" in html
    assert "detection" in html


def test_report_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1


def test_upload_command(tmp_path, capsys):
    import numpy as np

    from repro.datasets import House, house_to_csv

    house = House(
        house_id="upload",
        step_s=60.0,
        aggregate=np.random.default_rng(0).uniform(0, 500, 400),
    )
    path = tmp_path / "mydata.csv"
    house_to_csv(house, path)
    code = main(["upload", str(path), "--pages", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "loaded mydata" in out
    assert "window 1" in out


def test_energy_fast_command(capsys):
    code = main(["energy", "--fast", "--appliance", "kettle", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated_kwh" in out


CAMAL_STAGES = [
    "camal.ensemble_forward",
    "camal.cam_extraction",
    "camal.cam_normalization",
    "camal.mask",
    "camal.sigmoid",
    "camal.threshold",
]


def test_profile_fast_prints_span_tree_and_layers(capsys):
    code = main(["profile", "--fast", "--repeats", "1", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    for stage in CAMAL_STAGES:
        assert stage in out
    assert "camal.localize" in out
    assert "Conv1d" in out  # per-layer timing table
    assert "camal.detection_probability" in out  # metric summaries


def test_profile_json_round_trips(capsys):
    import json

    code = main([
        "profile", "--fast", "--repeats", "1", "--seed", "1",
        "--window", "6h", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"]["window"] == "6h"
    localize = next(
        s for s in payload["spans"] if s["name"] == "camal.localize"
    )
    child_names = [c["name"] for c in localize["children"]]
    assert set(CAMAL_STAGES) <= set(child_names)
    # The ensemble forward pass dominates a ResNet-ensemble localize.
    stages = {
        c["name"]: c["duration_s"]
        for c in localize["children"]
        if c["name"].startswith("camal.")
    }
    assert max(stages, key=stages.get) == "camal.ensemble_forward"
    assert payload["layers"] and payload["layers"][0]["total_s"] >= 0.0
    assert "camal.windows_localized_total" in payload["metrics"]


def test_profile_leaves_observability_disabled(capsys):
    from repro import obs

    assert main(["profile", "--fast", "--repeats", "1"]) == 0
    capsys.readouterr()
    assert not obs.enabled()


def test_profile_writes_html_panel(tmp_path, capsys):
    out_path = tmp_path / "profile.html"
    code = main([
        "profile", "--fast", "--repeats", "1", "--out", str(out_path)
    ])
    assert code == 0
    html = out_path.read_text()
    assert "camal.localize" in html
    assert "Conv1d" in html


def test_faultcheck_passes_and_prints_checks(capsys):
    code = main(["faultcheck", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "faultcheck: PASS" in out
    assert "pipeline completed under faults" in out
    assert "[FAIL]" not in out


def test_faultcheck_leaves_observability_disabled(capsys):
    from repro import obs

    assert main(["faultcheck"]) == 0
    capsys.readouterr()
    assert not obs.enabled()


def test_obs_openmetrics_stdout_is_scrape_clean(capsys):
    code = main(
        ["obs", "--fast", "--requests", "3", "--openmetrics", "--no-store"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Scrape-ready: nothing but exposition text on stdout.
    assert out.startswith("# HELP") or out.startswith("# TYPE")
    assert out.endswith("# EOF\n")
    assert "obs_request_seconds_bucket" in out
    assert 'le="+Inf"' in out
    assert 'kind="view"' in out
    assert "app_result_cache_hits_total" in out
    # The SLO rollup exports as gauges next to the raw metrics.
    assert "devicescope_slo_attainment" in out
    assert 'devicescope_slo_latency_ms{quantile="0.95"}' in out


def test_obs_trace_and_jsonl_round_trip(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "events.jsonl"
    code = main([
        "obs", "--fast", "--requests", "4", "--no-store",
        "--trace-out", str(trace_path), "--jsonl-out", str(jsonl_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chrome trace written" in out
    assert "== health ==" in out  # default dashboard still prints
    trace = json.loads(trace_path.read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans
    # Every span is request-attributed; views are the request kind.
    request_ids = {e["args"]["request_id"] for e in spans}
    assert request_ids and all(r.startswith("view-") for r in request_ids)
    events = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert events
    assert all("request_id" in record for record in events)
    cache_outcomes = {
        record["outcome"]
        for record in events
        if record["event"] == "app.result_cache"
    }
    assert cache_outcomes == {"hit", "miss"}


def test_obs_watch_prints_dashboard_per_request(capsys):
    code = main([
        "obs", "--fast", "--requests", "3", "--watch", "--interval", "0",
        "--no-store",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("== health ==") == 3
    assert "status: OK" in out
    assert "slo:" in out
    assert "== metrics ==" in out


def test_obs_watch_iterations_caps_refreshes(capsys):
    code = main([
        "obs", "--fast", "--requests", "4", "--watch", "--interval", "0",
        "--iterations", "2", "--no-store",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("== health ==") == 2


def test_obs_watch_sleep_is_injectable_and_interrupt_safe(
    capsys, monkeypatch
):
    from repro.app import cli

    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_WATCH_SLEEP", fake_sleep)
    code = main([
        "obs", "--fast", "--requests", "6", "--watch",
        "--interval", "0.25", "--no-store",
    ])
    assert code == 0  # Ctrl-C is a clean exit, not a traceback
    out = capsys.readouterr().out
    assert sleeps == [0.25, 0.25]
    assert "interrupted" in out


def test_obs_leaves_observability_disabled(capsys):
    from repro import obs

    assert main(["obs", "--fast", "--requests", "2", "--no-store"]) == 0
    capsys.readouterr()
    assert not obs.enabled()


def test_obs_store_history_survives_restart(tmp_path, capsys):
    store_dir = str(tmp_path / "telemetry")
    for _ in range(2):  # two separate "process" runs
        assert main([
            "obs", "--fast", "--requests", "3", "--store", store_dir,
        ]) == 0
    capsys.readouterr()
    # Fresh invocation only reads the store — no workload.
    assert main(["obs", "--fast", "--history", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "period start (UTC)" in out
    assert " 6 " in out  # both runs' requests in one period row


def test_obs_compact_then_history_unchanged(tmp_path, capsys):
    store_dir = str(tmp_path / "telemetry")
    assert main([
        "obs", "--fast", "--requests", "4", "--store", store_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "--history", "--store", store_dir]) == 0
    before = capsys.readouterr().out
    assert main(["obs", "--compact", "--history", "--store", store_dir]) == 0
    after = capsys.readouterr().out
    assert "compacted" in after
    assert before.strip() in after  # same trend rows post-compaction


def test_obs_history_requires_store(capsys):
    assert main(["obs", "--history", "--no-store"]) == 1


def test_quality_clean_control_stays_ok(capsys):
    code = main(["quality", "--fast", "--scenario", "clean", "--no-store"])
    out = capsys.readouterr().out
    assert code == 0
    assert "quality: OK" in out
    assert "canary: pass" in out


def test_quality_shifted_scenario_alerts(capsys):
    code = main(["quality", "--fast", "--scenario", "shifted", "--no-store"])
    out = capsys.readouterr().out
    assert code == 2
    assert "quality: ALERT" in out
    assert "health status: CRITICAL" in out
    assert "power_mean" in out


def test_quality_perturbed_checkpoint_fails_canary(capsys):
    code = main([
        "quality", "--fast", "--scenario", "clean",
        "--perturb-checkpoint", "--no-store",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "canary: FAIL" in out


def test_quality_json_output(capsys):
    import json

    code = main([
        "quality", "--fast", "--scenario", "clean", "--json", "--no-store",
    ])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"]["overall"] == "ok"
    assert "kettle" in payload["appliances"]


def test_quality_leaves_monitor_uninstalled(capsys):
    from repro import quality

    main(["quality", "--fast", "--scenario", "clean", "--no-store"])
    capsys.readouterr()
    assert quality.monitor() is None


def test_faultcheck_prints_health_status(capsys):
    assert main(["faultcheck", "--fast", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "health status:" in out
