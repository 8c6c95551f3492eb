"""Exporter contracts: a strict OpenMetrics parser, Chrome trace shape,
and JSONL round-trips — the same checks the CI export smoke leans on."""

import json
import math
import re

import numpy as np
import pytest

from repro import obs
from repro.obs.export import to_chrome_trace, to_jsonl, to_openmetrics

# -- a small spec-shaped exposition parser ---------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})(?:\{{(?P<labels>.*)\}})? (?P<value>\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')


def _unescape(value):
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_openmetrics(text):
    """Parse exposition text, asserting the structural rules of the spec:
    HELP/TYPE precede samples, names are legal, labels are well-formed,
    and the document ends with the ``# EOF`` terminator."""
    assert text.endswith("# EOF\n"), "missing # EOF terminator"
    metrics = {}
    current = None
    for line in text.splitlines():
        if line == "# EOF":
            current = None
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert re.fullmatch(_METRIC_NAME, name), name
            metrics.setdefault(name, {"samples": []})["help"] = _unescape(
                help_text
            )
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in {"counter", "gauge", "histogram"}, kind
            metrics.setdefault(name, {"samples": []})["type"] = kind
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        sample_name = match.group("name")
        # Samples belong to the most recent TYPE family (histograms
        # expose _bucket/_sum/_count children of the family name).
        assert current is not None and sample_name.startswith(current), line
        labels = {}
        raw = match.group("labels")
        if raw:
            consumed = sum(
                len(m.group(0)) for m in _LABEL.finditer(raw)
            )
            assert consumed == len(raw), f"bad label block: {raw!r}"
            labels = {
                m.group(1): _unescape(m.group(2))
                for m in _LABEL.finditer(raw)
            }
        metrics[current]["samples"].append(
            (sample_name, labels, _parse_value(match.group("value")))
        )
    return metrics


def _histogram_series(metric, family):
    """Group one family's samples by their non-``le`` label sets."""
    series = {}
    for name, labels, value in metric["samples"]:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        slot = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if name == f"{family}_bucket":
            slot["buckets"].append((_parse_value(labels["le"]), value))
        elif name == f"{family}_sum":
            slot["sum"] = value
        elif name == f"{family}_count":
            slot["count"] = value
        else:  # pragma: no cover - parser guard
            raise AssertionError(f"unexpected sample {name}")
    return series


# -- OpenMetrics -----------------------------------------------------------


def test_empty_snapshot_is_a_valid_empty_document():
    assert to_openmetrics({}) == "# EOF\n"
    parse_openmetrics(to_openmetrics({}))


def test_metrics_with_no_series_are_skipped():
    obs.enable()
    obs.registry.counter("camal.never_used", help="declared, never incremented")
    text = to_openmetrics(obs.registry.snapshot())
    assert "never_used" not in text
    parse_openmetrics(text)


def test_counter_and_gauge_exposition():
    obs.enable()
    obs.registry.counter("app.clicks", help="UI clicks").inc(kind="next")
    obs.registry.counter("app.clicks").inc(kind="next")
    obs.registry.gauge("app.position", help="view offset").set(42.0)
    metrics = parse_openmetrics(to_openmetrics(obs.registry.snapshot()))
    clicks = metrics["app_clicks"]
    assert clicks["type"] == "counter"
    assert clicks["help"] == "UI clicks"
    assert clicks["samples"] == [("app_clicks", {"kind": "next"}, 2.0)]
    assert metrics["app_position"]["samples"][0][2] == 42.0


def test_histogram_buckets_are_cumulative_and_consistent():
    obs.enable()
    hist = obs.registry.histogram(
        "nn.forward_ms", help="forward latency", buckets=(1.0, 5.0, 25.0)
    )
    hist.observe_many([0.5, 0.7, 3.0, 30.0, 100.0], stage="resnet")
    metrics = parse_openmetrics(to_openmetrics(obs.registry.snapshot()))
    family = metrics["nn_forward_ms"]
    assert family["type"] == "histogram"
    series = _histogram_series(family, "nn_forward_ms")
    slot = series[(("stage", "resnet"),)]
    edges = [edge for edge, _ in slot["buckets"]]
    counts = [count for _, count in slot["buckets"]]
    assert edges == [1.0, 5.0, 25.0, math.inf]
    assert counts == [2.0, 3.0, 3.0, 5.0]
    # Spec invariants: monotone non-decreasing buckets, +Inf == _count.
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == slot["count"] == 5.0
    assert slot["sum"] == pytest.approx(134.2)


def test_every_histogram_series_ends_at_its_count():
    obs.enable()
    hist = obs.registry.histogram("h", buckets=(0.1, 1.0))
    hist.observe(0.05, kind="a")
    hist.observe_many([0.5, 2.0, 3.0], kind="b")
    metrics = parse_openmetrics(to_openmetrics(obs.registry.snapshot()))
    for slot in _histogram_series(metrics["h"], "h").values():
        counts = [count for _, count in sorted(slot["buckets"])]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == slot["count"]


def test_label_escaping_round_trips():
    obs.enable()
    tricky = 'quo"te\\slash\nnewline'
    obs.registry.counter("c", help='he"lp\nline').inc(**{"bad-key": tricky})
    text = to_openmetrics(obs.registry.snapshot())
    assert "\\n" in text  # the newline never appears raw inside a sample
    metrics = parse_openmetrics(text)
    name, labels, value = metrics["c"]["samples"][0]
    assert labels == {"bad_key": tricky}
    assert value == 1.0
    assert metrics["c"]["help"] == 'he"lp\nline'


def test_dotted_names_are_sanitized():
    obs.enable()
    obs.registry.counter("camal.detect.calls").inc()
    metrics = parse_openmetrics(to_openmetrics(obs.registry.snapshot()))
    assert "camal_detect_calls" in metrics


def test_request_workload_exposition_parses():
    """End-to-end: the snapshot produced by real request traffic renders
    a document the strict parser accepts."""
    obs.enable()
    with obs.request(kind="view"):
        with obs.span("work"):
            pass
    with pytest.raises(RuntimeError):
        with obs.request(kind="view"):
            raise RuntimeError("x")
    metrics = parse_openmetrics(to_openmetrics(obs.registry.snapshot()))
    assert metrics["obs_request_seconds"]["type"] == "histogram"
    outcomes = {
        labels["outcome"]: value
        for _, labels, value in metrics["obs_requests_total"]["samples"]
    }
    assert outcomes == {"ok": 1.0, "error": 1.0}


# -- SLO gauges ------------------------------------------------------------


def _slo_snapshot(**records):
    """Build a real SloTracker snapshot from outcome -> seconds lists."""
    from repro.obs.slo import SloTracker

    tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
    for outcome, durations in records.items():
        for duration in durations:
            tracker.record(duration, outcome)
    return tracker.snapshot()


def test_slo_gauges_are_appended_and_parse():
    snapshot = _slo_snapshot(ok=[0.010, 0.020, 0.500])
    metrics = parse_openmetrics(to_openmetrics({}, slo=snapshot))
    for suffix in ("requests", "attainment", "burn_rate", "objective_ms"):
        family = metrics[f"devicescope_slo_{suffix}"]
        assert family["type"] == "gauge"
        assert len(family["samples"]) == 1
    assert metrics["devicescope_slo_requests"]["samples"][0][2] == 3.0
    assert metrics["devicescope_slo_attainment"]["samples"][0][2] == (
        pytest.approx(2 / 3)
    )
    assert metrics["devicescope_slo_objective_ms"]["samples"][0][2] == 100.0
    quantiles = {
        labels["quantile"]: value
        for _, labels, value in metrics["devicescope_slo_latency_ms"]["samples"]
    }
    assert set(quantiles) == {"0.5", "0.95", "0.99"}
    assert quantiles["0.5"] <= quantiles["0.95"] <= quantiles["0.99"]


def test_slo_gauges_skip_nan_series_when_empty():
    """An idle tracker exports only requests/objective — never NaN gauges
    that would trip strict scrapers."""
    text = to_openmetrics({}, slo=_slo_snapshot())
    metrics = parse_openmetrics(text)
    assert metrics["devicescope_slo_requests"]["samples"][0][2] == 0.0
    assert "devicescope_slo_objective_ms" in metrics
    assert "devicescope_slo_attainment" not in metrics
    assert "devicescope_slo_burn_rate" not in metrics
    assert "devicescope_slo_latency_ms" not in metrics
    assert "NaN" not in text


def test_slo_gauges_ride_alongside_registry_metrics():
    obs.enable()
    obs.registry.counter("app.clicks", help="UI clicks").inc()
    text = to_openmetrics(
        obs.registry.snapshot(), slo=_slo_snapshot(ok=[0.010])
    )
    metrics = parse_openmetrics(text)
    assert "app_clicks" in metrics
    assert "devicescope_slo_attainment" in metrics
    # Registry families first, SLO gauges appended before # EOF.
    assert text.index("app_clicks") < text.index("devicescope_slo_requests")


def test_omitting_slo_changes_nothing():
    obs.enable()
    obs.registry.counter("c").inc()
    snapshot = obs.registry.snapshot()
    assert to_openmetrics(snapshot) == to_openmetrics(snapshot, slo=None)
    assert "devicescope_slo" not in to_openmetrics(snapshot)


# -- Chrome trace ----------------------------------------------------------


def test_empty_tracer_yields_valid_empty_trace():
    with obs.tracer.capture() as captured:
        pass
    trace = to_chrome_trace(captured)
    assert trace == {"traceEvents": [], "displayTimeUnit": "ms"}
    json.dumps(trace)


def test_camal_stage_spans_each_produce_a_trace_event():
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble((5, 9), n_filters=(4, 8, 8), seed=0)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=300.0, std=400.0))
    obs.enable()
    with obs.tracer.capture() as captured, obs.request(kind="view") as req:
        model.localize_watts(
            np.random.default_rng(0).uniform(0, 3000, (2, 96))
        )
    trace = to_chrome_trace(captured)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    names = [e["name"] for e in events]
    for stage in (
        "camal.localize",
        "camal.ensemble_forward",
        "camal.cam_extraction",
        "camal.cam_normalization",
        "camal.mask",
        "camal.sigmoid",
        "camal.threshold",
    ):
        assert names.count(stage) >= 1, stage
    for event in events:
        assert event["ph"] == "X" and event["cat"] == "obs"
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["args"]["request_id"] == req.request_id
    # The sweep runs on the calling thread: one named track, and the
    # member spans share it with the ensemble_forward span that ran them.
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert [e["args"]["name"] for e in meta] == ["main"]
    members = [e for e in events if e["name"] == "ensemble.member_forward"]
    forward = [e for e in events if e["name"] == "camal.ensemble_forward"]
    assert len(members) == 2
    assert {e["tid"] for e in members} == {e["tid"] for e in forward}
    json.dumps(trace)  # serializable as-is


def test_trace_timestamps_are_normalized_and_nested():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    trace = to_chrome_trace(captured)
    by_name = {
        e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"
    }
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer["ts"] == 0.0
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]


def test_trace_accepts_to_dicts_export():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("a", n=3):
            pass
    trace = to_chrome_trace(captured.to_dicts())
    (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert event["name"] == "a" and event["args"]["n"] == 3


# -- JSON Lines ------------------------------------------------------------


def test_jsonl_round_trip():
    obs.enable()
    with obs.request(kind="view") as req:
        obs.log.event("step", note="hello", array=np.float64(1.5))
    text = to_jsonl(obs.log.events())
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["event"] == "step"
    assert all(r["request_id"] == req.request_id for r in parsed)


def test_jsonl_empty_and_non_native_values():
    assert to_jsonl([]) == ""
    line = to_jsonl([{"event": "x", "path": __import__("pathlib").Path("/tmp")}])
    assert json.loads(line)["path"] == "/tmp"
