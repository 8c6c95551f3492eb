"""SloTracker math: attainment, percentiles, burn rate, rolling window."""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.slo import GOOD_OUTCOMES, SloTracker, health_level


def test_empty_snapshot_is_nan_but_healthy():
    tracker = SloTracker()
    snap = tracker.snapshot()
    assert snap["count"] == 0
    for key in ("attainment", "p50_ms", "p95_ms", "p99_ms", "burn_rate"):
        assert math.isnan(snap[key]), key
    assert snap["outcomes"] == {}
    assert snap["healthy"] is True
    assert math.isnan(tracker.attainment())


def test_constructor_validation():
    with pytest.raises(ValueError):
        SloTracker(objective_ms=0)
    with pytest.raises(ValueError):
        SloTracker(error_budget=0.0)
    with pytest.raises(ValueError):
        SloTracker(error_budget=1.0)
    with pytest.raises(ValueError):
        SloTracker(window=0)


def test_good_means_ok_and_within_objective():
    tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
    tracker.record(0.050, "ok")        # good
    tracker.record(0.100, "ok")        # good: boundary counts
    tracker.record(0.200, "ok")        # slow — spends budget
    tracker.record(0.010, "degraded")  # fast but degraded — spends budget
    tracker.record(0.010, "error")     # spends budget
    snap = tracker.snapshot()
    assert snap["count"] == 5
    assert snap["attainment"] == pytest.approx(2 / 5)
    assert snap["outcomes"] == {"ok": 3, "degraded": 1, "error": 1}
    assert snap["burn_rate"] == pytest.approx((1 - 2 / 5) / 0.1)
    assert snap["healthy"] is False


def test_all_good_traffic_is_healthy_with_zero_burn():
    tracker = SloTracker(objective_ms=250.0, error_budget=0.01)
    for _ in range(100):
        tracker.record(0.005, "ok")
    snap = tracker.snapshot()
    assert snap["attainment"] == 1.0
    assert snap["burn_rate"] == 0.0
    assert snap["healthy"] is True


def test_burn_rate_of_one_sits_exactly_on_budget():
    tracker = SloTracker(objective_ms=100.0, error_budget=0.05)
    for _ in range(95):
        tracker.record(0.010, "ok")
    for _ in range(5):
        tracker.record(0.010, "error")
    snap = tracker.snapshot()
    assert snap["attainment"] == pytest.approx(0.95)
    assert snap["burn_rate"] == pytest.approx(1.0)
    assert snap["healthy"] is True  # attainment == 1 - budget


def test_percentiles_are_in_milliseconds():
    tracker = SloTracker()
    for second in (0.010, 0.020, 0.030, 0.040, 0.100):
        tracker.record(second, "ok")
    snap = tracker.snapshot()
    assert snap["p50_ms"] == pytest.approx(30.0)
    assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"] <= 100.0


def test_rolling_window_evicts_oldest():
    tracker = SloTracker(objective_ms=100.0, error_budget=0.5, window=4)
    for _ in range(4):
        tracker.record(1.0, "error")  # all bad
    assert tracker.snapshot()["attainment"] == 0.0
    for _ in range(4):
        tracker.record(0.010, "ok")  # pushes every bad request out
    snap = tracker.snapshot()
    assert len(tracker) == 4
    assert snap["attainment"] == 1.0
    assert snap["outcomes"] == {"ok": 4}


def test_reset_returns_to_empty():
    tracker = SloTracker()
    tracker.record(0.010)
    tracker.reset()
    assert len(tracker) == 0
    assert tracker.snapshot()["count"] == 0


def test_health_endpoint_includes_slo_rollup():
    from repro.app.benchmark_frame import BenchmarkBrowser
    from repro.app.playground import Playground
    from repro.app.session import DeviceScope
    from repro.datasets import build_dataset

    dataset = build_dataset("ukdale", seed=0, n_houses=2, days_per_house=(2, 3))
    app = DeviceScope(
        dataset_name="ukdale",
        train_dataset=dataset,
        browse_dataset=dataset,
        models={},
        playground=Playground(dataset, {}),
        benchmarks=BenchmarkBrowser(),
    )
    obs.enable()
    obs.slo_tracker.record(0.010, "ok")
    health = app.health()
    assert health["slo"]["count"] == 1
    assert health["slo"]["outcomes"] == {"ok": 1}
    assert "cache" in health and "robust" in health
    # One good request, no robust faults, no quality monitor installed.
    assert health["status"] == "ok"
    assert "quality" not in health


class TestHealthLevel:
    """health_level: the SLO input to the top-level status."""

    def test_no_data_is_ok(self):
        assert health_level(SloTracker().snapshot()) == "ok"

    def test_healthy_traffic_is_ok(self):
        tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
        for _ in range(20):
            tracker.record(0.010, "ok")
        assert health_level(tracker.snapshot()) == "ok"

    def test_breached_objective_is_degraded(self):
        tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
        for _ in range(17):
            tracker.record(0.010, "ok")
        for _ in range(3):
            tracker.record(0.500, "ok")  # slow: 15% bad vs 10% budget
        snap = tracker.snapshot()
        assert 1.0 <= snap["burn_rate"] < 2.0
        assert health_level(snap) == "degraded"

    def test_fast_burn_is_critical(self):
        tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
        for _ in range(3):
            tracker.record(0.010, "ok")
        for _ in range(2):
            tracker.record(0.010, "error")  # 40% bad = 4x budget burn
        snap = tracker.snapshot()
        assert snap["burn_rate"] >= 2.0
        assert health_level(snap) == "critical"


class TestDeriveStatus:
    """derive_status: robust + SLO + quality collapse to one level."""

    @staticmethod
    def _counter(name, value):
        return {name: {"type": "counter", "series": [{"value": value}]}}

    def test_everything_quiet_is_ok(self):
        from repro.app.session import derive_status

        assert derive_status({}, SloTracker().snapshot()) == "ok"

    def test_repairs_alone_stay_ok(self):
        from repro.app.session import derive_status

        robust = self._counter("robust.windows_repaired_total", 12)
        assert derive_status(robust, SloTracker().snapshot()) == "ok"

    def test_degrade_and_reject_counters_mark_degraded(self):
        from repro.app.session import derive_status

        empty_slo = SloTracker().snapshot()
        for name in (
            "robust.windows_degraded_total",
            "robust.inputs_rejected_total",
        ):
            assert derive_status(self._counter(name, 1), empty_slo) == "degraded"
        # Declared but never incremented does not degrade.
        assert derive_status(self._counter(name, 0), empty_slo) == "ok"

    def test_quality_warn_degrades_and_alert_is_critical(self):
        from repro.app.session import derive_status

        empty_slo = SloTracker().snapshot()
        assert derive_status({}, empty_slo, {"overall": "warn"}) == "degraded"
        assert derive_status({}, empty_slo, {"overall": "alert"}) == "critical"
        assert derive_status({}, empty_slo, {"overall": "ok"}) == "ok"

    def test_worst_section_wins(self):
        from repro.app.session import derive_status

        tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
        for _ in range(17):
            tracker.record(0.010, "ok")
        for _ in range(3):
            tracker.record(0.500, "ok")  # slow-burn: degraded on its own
        robust = self._counter("robust.windows_degraded_total", 1)
        status = derive_status(robust, tracker.snapshot(), {"overall": "alert"})
        assert status == "critical"

    def test_installed_quality_monitor_feeds_health(self):
        from repro import quality
        from repro.app.session import derive_status
        from repro.quality import QualityMonitor

        monitor = quality.install(QualityMonitor())
        try:
            status = quality.monitor().status()
            assert derive_status({}, SloTracker().snapshot(), status) == "ok"
        finally:
            quality.uninstall()


def test_format_slo_renders_both_states():
    from repro.obs.report import format_slo

    empty = format_slo(SloTracker().snapshot())
    assert "no requests" in empty
    tracker = SloTracker(objective_ms=100.0, error_budget=0.1)
    tracker.record(0.010, "ok")
    tracker.record(1.0, "error")
    text = format_slo(tracker.snapshot())
    assert "BREACHING" in text
    assert "attainment" in text and "p95" in text
    for _ in range(98):
        tracker.record(0.010, "ok")
    assert "HEALTHY" in format_slo(tracker.snapshot())


def test_client_errors_spend_no_budget():
    """A handled 4xx is the service doing its job: it must not burn
    the error budget (one misbehaving client could otherwise trip
    admission control for every tenant)."""
    tracker = SloTracker(objective_ms=100.0, error_budget=0.01)
    for _ in range(10):
        tracker.record(0.010, outcome="client_error")
    snapshot = tracker.snapshot()
    assert snapshot["attainment"] == 1.0
    assert snapshot["burn_rate"] == 0.0
    assert snapshot["healthy"] is True
    assert snapshot["outcomes"] == {"client_error": 10}
    # ...but a *slow* client_error still misses the latency objective.
    tracker.record(1.0, outcome="client_error")
    assert tracker.snapshot()["attainment"] < 1.0


# -- running tallies vs a from-scratch recount --------------------------------

_OUTCOMES = ("ok", "client_error", "degraded", "error", "shed")
_record_step = st.tuples(
    st.just("record"),
    # Exact ms on the objective boundaries, plus arbitrary durations.
    st.one_of(
        st.sampled_from([0.0, 0.05, 0.1, 0.25, 1.0]),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    st.sampled_from(_OUTCOMES),
)
_objective_step = st.tuples(
    st.just("objective"),
    st.one_of(
        st.sampled_from([50.0, 100.0, 250.0]),
        st.floats(min_value=1.0, max_value=2000.0),
    ),
    st.none(),
)


def _recount(entries, objective_ms, error_budget):
    """SLO answers recomputed from the window contents alone."""
    count = len(entries)
    outcomes = {}
    good = 0
    for ms, outcome in entries:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome in GOOD_OUTCOMES and ms <= objective_ms:
            good += 1
    if not count:
        nan = float("nan")
        return {"count": 0, "attainment": nan, "burn_rate": nan,
                "outcomes": {}, "healthy": True}
    attainment = good / count
    return {
        "count": count,
        "attainment": attainment,
        "burn_rate": (1.0 - attainment) / error_budget,
        "outcomes": outcomes,
        "healthy": attainment >= 1.0 - error_budget,
    }


def _same(a, b):
    """Equality with NaN equal to NaN."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=8),
    error_budget=st.sampled_from([0.01, 0.1, 0.5]),
    steps=st.lists(st.one_of(_record_step, _objective_step), max_size=40),
)
def test_tallies_match_recount_after_every_step(window, error_budget, steps):
    tracker = SloTracker(
        objective_ms=100.0, error_budget=error_budget, window=window
    )
    entries = deque(maxlen=window)
    objective_ms = 100.0
    for kind, value, outcome in steps:
        if kind == "record":
            tracker.record(value, outcome)
            entries.append((float(value) * 1e3, outcome))
        else:
            tracker.objective_ms = value
            objective_ms = float(value)
        want = _recount(entries, objective_ms, error_budget)
        burn, count = tracker.burn_rate()
        assert count == want["count"]
        assert _same(burn, want["burn_rate"])
        assert _same(tracker.attainment(), want["attainment"])
        snap = tracker.snapshot()
        assert snap["objective_ms"] == objective_ms
        for key in ("count", "attainment", "burn_rate", "healthy"):
            assert _same(snap[key], want[key]), key
        # Same counts, in order of first appearance in the window.
        assert list(snap["outcomes"].items()) == list(want["outcomes"].items())
    tracker.reset()
    burn, count = tracker.burn_rate()
    assert math.isnan(burn) and count == 0
    assert tracker.snapshot()["outcomes"] == {}
