"""Flight recorder: tail-based retention, bounds, and teardown.

The acceptance contract: under a mixed load the recorder retains 100%
of error/degraded/shed traces plus the slowest decile, stays inside its
entry and byte bounds, and tears down completely on ``obs.reset()``.
``tests/serve/test_completion.py`` checks the served 500 and 503 traces
over a live server.
"""

import numpy as np

from repro import obs
from repro.obs import Completion
from repro.obs.flight import KEEP_OUTCOMES, FlightRecorder


def _finish(rec, rid, outcome="ok", duration_s=0.001, admitted=True, **fields):
    rec.finish_request(
        Completion(
            rid, "t" * 32, "serve", outcome, duration_s,
            admitted=admitted, **fields,
        )
    )


def test_keep_outcomes_always_retained():
    rec = FlightRecorder(sample_rate=0.0)
    for i, outcome in enumerate(sorted(KEEP_OUTCOMES)):
        _finish(rec, f"r{i}", outcome=outcome)
    assert [e["outcome"] for e in rec.entries()] == sorted(KEEP_OUTCOMES)
    assert all(e["reason"] == e["outcome"] for e in rec.entries())


def test_healthy_fast_requests_dropped_when_sampling_off():
    rec = FlightRecorder(sample_rate=0.0)
    for i in range(50):
        _finish(rec, f"r{i}", outcome="ok")
    assert rec.entries() == []
    assert rec.stats()["seen"] == 50


def test_slow_tier_needs_history_then_catches_the_slowest_decile():
    rec = FlightRecorder(sample_rate=0.0)
    # Below 20 samples there is no threshold: a 10x outlier is dropped.
    for i in range(10):
        _finish(rec, f"warm{i}", duration_s=0.001)
    _finish(rec, "early-slow", duration_s=0.1)
    assert rec.entries() == []
    for i in range(20):
        _finish(rec, f"more{i}", duration_s=0.001)
    assert rec.stats()["slow_threshold_s"] is not None
    _finish(rec, "late-slow", duration_s=0.1)
    kept = rec.entries()
    assert [e["request_id"] for e in kept] == ["late-slow"]
    assert kept[0]["reason"] == "slow"


def test_sorted_window_tracks_the_rolling_durations():
    """Past the window's length, the sorted copy still holds exactly the
    last ``slow_window`` durations, so the threshold and the fastest-recent
    floor equal a full sort of the window (repeated values included)."""
    rec = FlightRecorder(sample_rate=0.0, slow_window=32)
    rng = np.random.default_rng(3)
    for i, duration in enumerate(rng.choice(rng.uniform(0, 1, 40), 200)):
        _finish(rec, f"r{i}", duration_s=float(duration))
        window = sorted(rec._durations)
        assert rec._sorted_durations == window
        if len(window) >= 20:
            idx = min(len(window) - 1, int(0.9 * len(window)))
            assert rec.stats()["slow_threshold_s"] == window[idx]
    rec.reset()
    assert rec._sorted_durations == []


def test_probabilistic_baseline_is_deterministic_per_seed():
    def kept_ids(seed):
        rec = FlightRecorder(sample_rate=0.2, seed=seed)
        for i in range(100):
            _finish(rec, f"r{i}")
        return [e["request_id"] for e in rec.entries()]

    a, b = kept_ids(7), kept_ids(7)
    assert a == b and 0 < len(a) < 100
    assert kept_ids(8) != a


def test_entry_bound_evicts_sampled_before_errors():
    rec = FlightRecorder(max_entries=4, sample_rate=1.0)
    for i in range(4):
        _finish(rec, f"ok{i}", outcome="ok")
    for i in range(4):
        _finish(rec, f"err{i}", outcome="error")
    entries = rec.entries()
    assert len(entries) == 4
    assert all(e["outcome"] == "error" for e in entries)
    assert rec.stats()["evicted"] == 4


def test_byte_bound_holds_and_oldest_errors_go_last():
    rec = FlightRecorder(max_bytes=2000, sample_rate=0.0)
    for i in range(50):
        _finish(rec, f"err{i}", outcome="error")
    stats = rec.stats()
    assert stats["bytes"] <= 2000
    assert stats["entries"] >= 1
    # Survivors are the *newest* errors (oldest evicted first).
    assert rec.entries()[-1]["request_id"] == "err49"


def test_record_rejected_keeps_sheds_without_spans():
    rec = FlightRecorder(sample_rate=0.0)
    _finish(rec, "serve-x", outcome="shed", duration_s=0.0, admitted=False,
            reason="slo_burn")
    _finish(rec, "serve-y", outcome="client_error", duration_s=0.0,
            admitted=False)
    entries = rec.entries()
    assert [e["request_id"] for e in entries] == ["serve-x"]
    assert entries[0]["spans"] == []
    assert entries[0]["tags"]["reason"] == "slo_burn"


def test_shed_does_not_pull_the_slow_floor_to_zero():
    """A refusal is never timed: its 0 s must not enter the rolling
    window, or every request at the (uniform) p90 reads as slow."""
    rec = FlightRecorder(sample_rate=0.0)
    for i in range(40):
        _finish(rec, f"a{i}", duration_s=0.01)
    _finish(rec, "shed-1", outcome="shed", duration_s=0.0, admitted=False)
    for i in range(40):
        _finish(rec, f"b{i}", duration_s=0.01)
    assert rec.stats()["by_reason"] == {"shed": 1}
    assert [e for e in rec.entries() if e["reason"] == "slow"] == []


def test_mixed_load_acceptance_all_bad_plus_slow_decile():
    """200 mixed requests: every error/degraded/shed retained, the
    slowest decile retained, bounds hold."""
    rec = FlightRecorder(max_entries=256, sample_rate=0.05, seed=0)
    bad = []
    for i in range(200):
        if i % 40 == 7:
            outcome, duration = "error", 0.002
        elif i % 40 == 19:
            outcome, duration = "degraded", 0.002
        elif i % 40 == 31:
            outcome, duration = "shed", 0.0
        elif i % 10 == 3:
            outcome, duration = "ok", 0.05  # the slow decile
        else:
            outcome, duration = "ok", 0.001
        if outcome in KEEP_OUTCOMES:
            bad.append(f"r{i}")
        _finish(rec, f"r{i}", outcome=outcome, duration_s=duration)
    kept = {e["request_id"]: e for e in rec.entries()}
    missing = [rid for rid in bad if rid not in kept]
    assert not missing, f"lost always-keep traces: {missing}"
    slow = [e for e in kept.values() if e["reason"] == "slow"]
    # The 0.05s band is 10% of traffic; once history warms up, all of
    # it clears the rolling p90.
    assert len(slow) >= 10
    stats = rec.stats()
    assert stats["entries"] <= 256 and stats["bytes"] <= rec.max_bytes


def test_always_keep_traces_dump_to_store(tmp_path):
    obs.enable()
    store = obs.TelemetryStore(tmp_path)
    obs.set_store(store)
    try:
        rec = FlightRecorder(sample_rate=0.0)
        _finish(rec, "bad-1", outcome="error")
        store.seal_active()
        flights = [
            rec_ for rec_ in store.records() if rec_.get("type") == "flight"
        ]
        assert len(flights) == 1
        assert flights[0]["request_id"] == "bad-1"
    finally:
        obs.set_store(None)
        store.close()


def test_obs_reset_tears_down_the_flight_ring():
    obs.enable()
    with obs.request(kind="serve") as req:
        req.set_outcome("error")
        with obs.span("work"):
            pass
    assert obs.flight_recorder.stats()["entries"] == 1
    entry = obs.flight_recorder.entries()[0]
    assert entry["outcome"] == "error"
    assert entry["spans"] and entry["spans"][0]["name"] == "work"
    obs.reset()
    stats = obs.flight_recorder.stats()
    assert stats["entries"] == 0 and stats["seen"] == 0
    assert stats["bytes"] == 0


def test_kept_entry_stores_each_request_tree_once():
    """The entry's spans are the request's own root spans — member
    forwards nested inside them — serialized once."""
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    obs.enable()
    ensemble = ResNetEnsemble((5, 9), n_filters=(4, 8, 8), seed=0)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=300.0, std=400.0))
    watts = np.random.default_rng(0).uniform(0, 3000, (2, 96))
    with obs.tracer.capture() as captured, obs.request(kind="serve") as req:
        req.set_outcome("degraded")  # always kept
        model.localize_watts(watts)
    rid = req.request_id
    (entry,) = obs.flight_recorder.entries()
    roots = [r for r in captured.roots() if r.request_id == rid]
    assert entry["spans"] == [r.to_dict() for r in roots]
    assert [r.name for r in roots] == ["camal.localize"]
    names = [s.name for s in roots[0].walk()]
    assert names.count("ensemble.member_forward") == 2  # each member once
