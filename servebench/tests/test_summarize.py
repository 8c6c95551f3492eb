"""Run-level figures from a synthetic timed phase: medians over slices."""

import json

import pytest

from servebench.harness import OpRecord, Timed, summarize
from servebench.workloads import Sizes, make_plan

TINY = Sizes(ingest_days=14)


def _records(plan, latencies_ms, t0=100.0, spacing=0.1):
    ops = plan.clients[0]
    records = []
    for i, latency in enumerate(latencies_ms):
        op = ops[i % len(ops)]
        meta = op.meta
        body = json.dumps({"house_id": "bulk-0", "appended": meta["samples"], "n_steps": meta["n_steps"]})
        statuses = [200] * len(op.prelude) + [200]
        bodies = [b""] * len(op.prelude) + [body.encode()]
        if op.prelude:
            bodies[-2] = json.dumps({"house_id": "bulk-0", "step_s": 60.0, "n_steps": 0, "devices": []}).encode()
            statuses[-2] = 201
        end = t0 + (i + 1) * spacing
        records.append(OpRecord(0, op, None, end - latency / 1e3, end, statuses, bodies))
    return records


def test_figures_are_medians_over_slices():
    plan = make_plan("ingest", 1, 10.0, 34.0, TINY)
    # 10 slices of 1 s with 10 ops each; one slice is disturbed.
    latencies = [10.0] * 100
    latencies[50:60] = [500.0] * 10
    marks = [(100.0 + k, 2.0 + 0.05 * k) for k in range(11)]
    out = summarize(plan, Timed(_records(plan, latencies, t0=99.95), marks, 10.0), limit_ms=100.0)
    m = out["metrics"]
    assert out["failed"] == 0
    assert m["ops_per_s"] == pytest.approx(10.0)
    assert m["goodput_ops_per_s"] == pytest.approx(10.0)  # 9 of 10 slices meet the limit
    assert m["latency_p50_ms"] == pytest.approx(10.0)
    assert m["latency_p95_ms"] == pytest.approx(10.0)  # the disturbed slice moves one slice only
    assert m["cpu_ms_per_op"] == pytest.approx(5.0)
    assert out["pooled_latency_ms"]["p95"] == 500.0
    # Ten ops per slice leave none beyond each slice's p95.
    assert out["latency_p95_samples_beyond"] == 0
    assert not out["latency_p95_supported"]


def test_slices_with_the_most_steal_are_left_out():
    plan = make_plan("ingest", 1, 10.0, 34.0, TINY)
    # 20 slices of 0.5 s with 5 ops each; the host stole CPU in the
    # first 10, where the ops took 50 ms, not 10 ms.
    latencies = [50.0] * 50 + [10.0] * 50
    marks = [(100.0 + 0.5 * k, 0.0) for k in range(21)]
    steal = [0.2] * 10 + [0.01] * 10
    records = _records(plan, latencies, t0=99.95, spacing=0.1)
    out = summarize(plan, Timed(records, marks, 10.0, steal=steal), limit_ms=100.0)
    assert out["slices"]["kept"] == list(range(10, 20))
    assert out["metrics"]["latency_p50_ms"] == pytest.approx(10.0)
    # Without steal readings every slice counts.
    out = summarize(plan, Timed(records, marks, 10.0), limit_ms=100.0)
    assert out["slices"]["kept"] == list(range(20))
    assert out["metrics"]["latency_p50_ms"] == pytest.approx(30.0)


def test_p95_support_sums_over_slices():
    plan = make_plan("ingest", 1, 10.0, 34.0, TINY)
    marks = [(100.0 + k, 0.0) for k in range(11)]
    records = _records(plan, [10.0] * 400, t0=99.9975, spacing=0.025)  # 40 per slice
    out = summarize(plan, Timed(records, marks, 10.0), limit_ms=100.0)
    assert out["latency_p95_samples_beyond"] == 10 * 2
    assert out["latency_p95_supported"]


def test_failed_ops_are_counted_and_miss():
    plan = make_plan("ingest", 1, 10.0, 34.0, TINY)
    records = _records(plan, [10.0] * 20)
    records[3].statuses[-1] = 503
    records[4].bodies[-1] = b'{"house_id": "bulk-0", "appended": 1, "n_steps": 1}'
    marks = [(100.0 + 0.2 * k, 0.0) for k in range(11)]
    out = summarize(plan, Timed(records, marks, 2.0), limit_ms=100.0)
    assert out["failed"] == 2
    assert out["failures"]["shed"] == 1
    assert out["failures"]["mismatch"] == 1
    assert out["succeeded"] == 18
