"""Request scopes: stamping, reuse, per-thread attribution, dedup, reset."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.context import NOOP_REQUEST


def _tiny_camal():
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble((5, 9), n_filters=(4, 8, 8), seed=0)
    ensemble.eval()
    return CamAL(ensemble, Standardizer(mean=300.0, std=400.0))


def test_disabled_request_is_shared_noop():
    assert not obs.enabled()
    with obs.request(kind="view") as req:
        assert req is NOOP_REQUEST
        req.mark_degraded()  # API parity, no-op
        assert obs.current_request() is None
    assert obs.log.events() == []
    assert obs.registry.get("obs.requests_total") is None
    assert len(obs.slo_tracker) == 0


def test_request_stamps_spans_and_events():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.request(kind="view", house="h1") as req:
            with obs.span("work"):
                obs.log.event("inner", n=1)
    assert req.request_id == "view-000001"
    span = captured.find("work")
    assert span.request_id == req.request_id
    inner = obs.log.events("inner")[0]
    assert inner["request_id"] == req.request_id
    # The request-completion event carries id, kind, outcome, latency.
    done = obs.log.events("request")[0]
    assert done["request_id"] == req.request_id
    assert done["request_kind"] == "view"
    assert done["outcome"] == "ok"
    assert done["duration_s"] >= 0.0
    assert done["house"] == "h1"


def test_request_records_histogram_counter_and_slo():
    obs.enable()
    with obs.request(kind="view"):
        pass
    hist = obs.registry.get("obs.request_seconds")
    assert hist.series(kind="view")["count"] == 1
    assert obs.registry.get("obs.requests_total").value(
        kind="view", outcome="ok"
    ) == 1
    snap = obs.slo_tracker.snapshot()
    assert snap["count"] == 1 and snap["outcomes"] == {"ok": 1}


def test_nested_request_joins_the_outer_scope():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.request(kind="outer") as outer:
            with obs.request(kind="inner") as inner:
                assert inner is outer
                with obs.span("deep"):
                    pass
    assert captured.find("deep").request_id == outer.request_id
    # Only the outermost scope records a completed request.
    assert len(obs.log.events("request")) == 1
    assert len(obs.slo_tracker) == 1


def test_exception_marks_error_outcome():
    obs.enable()
    with pytest.raises(ValueError):
        with obs.request(kind="view"):
            raise ValueError("boom")
    assert obs.registry.get("obs.requests_total").value(
        kind="view", outcome="error"
    ) == 1
    assert obs.slo_tracker.snapshot()["outcomes"] == {"error": 1}


def test_mark_degraded_never_upgrades_error():
    obs.enable()
    with obs.request(kind="view") as req:
        req.mark_degraded()
    assert obs.slo_tracker.snapshot()["outcomes"] == {"degraded": 1}
    req.outcome = "error"
    req.mark_degraded()
    assert req.outcome == "error"


def test_span_parent_child_ids_form_a_tree():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("root"):
            with obs.span("child"):
                with obs.span("grandchild"):
                    pass
    root = captured.find("root")
    child = root.children[0]
    grandchild = child.children[0]
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert len({root.span_id, child.span_id, grandchild.span_id}) == 3


def test_worker_thread_spans_carry_the_request_id():
    """Acceptance: a sweep under obs.request on a worker thread (as an
    HTTP handler runs one) — every span, member forwards included, is
    stamped with that thread's request and recorded on that thread."""
    obs.enable()
    model = _tiny_camal()
    watts = np.random.default_rng(0).uniform(0, 3000, (2, 96))
    request_ids = []

    def handle():
        with obs.request(kind="view") as req:
            request_ids.append(req.request_id)
            model.localize_watts(watts)

    with obs.tracer.capture() as captured:
        worker = threading.Thread(target=handle)
        worker.start()
        worker.join()
    [request_id] = request_ids
    spans = captured.all_spans()
    assert len(spans) >= 8  # all six stages + members, at minimum
    assert all(s.request_id == request_id for s in spans)
    assert {s.tid for s in spans} == {worker.ident}
    members = [s for s in spans if s.name == "ensemble.member_forward"]
    assert len(members) == 2
    # Parent linkage: member spans are children of the ensemble_forward
    # span that ran them.
    forward = captured.find("camal.ensemble_forward")
    assert {m.parent_id for m in members} == {forward.span_id}
    assert forward.children == members
    assert captured.request_spans(request_id) == spans


def test_playground_view_telemetry_is_fully_attributed():
    """Acceptance: 100% of spans/events from a Playground.view call —
    cache hit/miss events included — carry the wrapping request id."""
    from repro.app.playground import Playground
    from repro.datasets import build_dataset

    dataset = build_dataset("ukdale", seed=0, n_houses=2, days_per_house=(2, 3))
    playground = Playground(dataset, {"kettle": _tiny_camal()})
    playground.state.selected_appliances = ["kettle"]
    playground.select_window("6h")
    obs.enable()
    with obs.tracer.capture() as captured, obs.request(kind="click") as req:
        playground.view()
        playground.view()  # revisit → cache hit, same request
    spans = captured.all_spans()
    assert spans and all(s.request_id == req.request_id for s in spans)
    events = obs.log.events()
    assert events and all(
        e.get("request_id") == req.request_id for e in events
    )
    cache_events = obs.log.events("app.result_cache")
    outcomes = {e["outcome"] for e in cache_events}
    assert outcomes == {"hit", "miss"}


def test_bare_view_opens_its_own_request():
    from repro.app.playground import Playground
    from repro.datasets import build_dataset

    dataset = build_dataset("ukdale", seed=0, n_houses=2, days_per_house=(2, 3))
    playground = Playground(dataset, {"kettle": _tiny_camal()})
    playground.state.selected_appliances = ["kettle"]
    playground.select_window("6h")
    obs.enable()
    playground.view()
    done = obs.log.events("request")
    assert len(done) == 1 and done[0]["request_kind"] == "view"
    assert len(obs.slo_tracker) == 1


def test_warning_dedup_within_a_request():
    obs.enable()
    with obs.request(kind="view"):
        for _ in range(5):
            obs.warning("robust.repairs_total", defect="nan_gap")
        obs.warning("robust.repairs_total", defect="negative")
    # Counter saw every call; the event buffer got one record per
    # distinct (name, labels), with the repeat count folded in.
    counter = obs.registry.get("robust.repairs_total")
    assert counter.value(defect="nan_gap") == 5
    records = obs.log.events("robust.repairs_total")
    assert len(records) == 2
    by_defect = {r["defect"]: r for r in records}
    assert by_defect["nan_gap"]["count"] == 5
    assert "count" not in by_defect["negative"]


def test_warning_outside_request_is_not_deduplicated():
    obs.enable()
    obs.warning("w", k=1)
    obs.warning("w", k=1)
    assert len(obs.log.events("w")) == 2


def test_reset_yields_a_clean_slate():
    """Satellite: enable → request → reset → snapshot is pristine."""
    obs.enable()
    with obs.request(kind="view"):
        with obs.span("work"):
            obs.warning("w", k=1)
    obs.reset()
    assert obs.flight_recorder.stats()["seen"] == 0
    assert obs.log.events() == []
    assert len(obs.slo_tracker) == 0
    assert obs.slo_tracker.snapshot()["count"] == 0
    for name in obs.registry.names():
        assert obs.registry.get(name).snapshot()["series"] == []
    # Request ids restart — deterministic numbering after reset.
    with obs.request(kind="view") as req:
        pass
    assert req.request_id == "view-000001"


def test_event_ring_keeps_the_newest_default_capacity_records():
    obs.enable()
    for i in range(obs.log.DEFAULT_CAPACITY + 5):
        obs.log.event("e", i=i)
    events = obs.log.events()
    assert len(events) == obs.log.DEFAULT_CAPACITY
    assert events[0]["i"] == 5
    assert events[-1]["i"] == obs.log.DEFAULT_CAPACITY + 4


def test_retry_attempts_carry_the_request_id():
    from repro.robust import retriable

    calls = {"n": 0}

    @retriable(max_attempts=3, backoff=0.0, jitter=0.0, sleep=lambda s: None)
    def flaky():
        calls["n"] += 1
        if calls["n"] < 2:
            raise OSError("transient")
        return "ok"

    obs.enable()
    with obs.request(kind="view") as req:
        assert flaky() == "ok"
    attempts = obs.log.events("robust.retry_attempts_total")
    assert len(attempts) == 1
    assert attempts[0]["request_id"] == req.request_id
    assert attempts[0]["attempt"] == 1
