"""Tracer: nesting, exception safety, capture, disabled-mode no-op."""

import json

import pytest

from repro import obs
from repro.obs.tracing import NOOP_SPAN


def test_disabled_span_is_shared_noop():
    assert not obs.enabled()
    assert obs.span("anything", k=1) is NOOP_SPAN
    with obs.tracer.capture() as captured:
        with obs.span("anything") as sp:
            sp.set(ignored=True)  # no-op API parity with real spans
    assert captured.roots() == []


def test_nested_spans_build_a_tree():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("root", task="t") as root:
            with obs.span("child_a"):
                with obs.span("grandchild"):
                    pass
            with obs.span("child_b"):
                pass
    roots = captured.roots()
    assert [r.name for r in roots] == ["root"]
    assert [c.name for c in roots[0].children] == ["child_a", "child_b"]
    assert roots[0].children[0].children[0].name == "grandchild"
    assert roots[0].attrs == {"task": "t"}
    assert root.duration_s >= root.children[0].duration_s >= 0.0


def test_span_set_attaches_attributes():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("s") as sp:
            sp.set(n=3)
    assert captured.find("s").attrs["n"] == 3


def test_exception_closes_span_and_records_error():
    obs.enable()
    with obs.tracer.capture() as captured:
        with pytest.raises(ValueError, match="boom"):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        outer = captured.find("outer")
        assert outer is not None
        assert outer.error is not None and "boom" in outer.error
        assert outer.children[0].error is not None
        # The stack unwound cleanly: a new span is a fresh root, not a child.
        with obs.span("after"):
            pass
    assert [r.name for r in captured.roots()] == ["outer", "after"]


def test_find_returns_newest_match():
    obs.enable()
    with obs.tracer.capture() as captured:
        for i in range(2):
            with obs.span("run") as sp:
                sp.set(i=i)
    assert captured.find("run").attrs["i"] == 1
    assert captured.find("missing") is None


def test_json_export_round_trips():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("root", n=2):
            with obs.span("leaf"):
                pass
    payload = json.loads(json.dumps(captured.to_dicts()))
    assert payload[-1]["name"] == "root"
    assert payload[-1]["attrs"] == {"n": 2}
    assert payload[-1]["children"][0]["name"] == "leaf"
    assert payload[-1]["duration_s"] >= 0.0


def test_capture_collects_only_roots_closed_while_open():
    obs.enable()
    with obs.span("before"):
        pass
    with obs.tracer.capture() as outer:
        with obs.span("a"):
            pass
        with obs.tracer.capture() as inner:
            with obs.span("b"):
                with obs.span("b.child"):
                    pass
    with obs.span("after"):
        pass
    assert [r.name for r in outer.roots()] == ["a", "b"]
    assert [r.name for r in inner.roots()] == ["b"]
    assert [s.name for s in outer.all_spans()] == ["a", "b", "b.child"]


def test_camal_records_nothing_when_disabled():
    """Hot-path instrumentation must be inert by default."""
    import numpy as np

    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    assert not obs.enabled()
    ensemble = ResNetEnsemble((5,), n_filters=(4, 8, 8), seed=0)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=300.0, std=400.0))
    with obs.tracer.capture() as captured:
        model.localize_watts(
            np.random.default_rng(0).uniform(0, 3000, (2, 64))
        )
    assert captured.roots() == []
    assert obs.registry.get("camal.detection_probability") is None
    assert obs.log.events() == []


def test_request_roots_match_the_ring_under_thread_contention():
    """Roots closed concurrently on many threads all land on their
    request, in the same order as an open capture sees them."""
    import contextvars
    import sys
    import threading

    obs.enable()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with obs.tracer.capture() as captured, obs.request(kind="serve") as req:

            def work():
                for i in range(50):
                    with obs.span("worker", i=i):
                        pass

            threads = [
                threading.Thread(target=contextvars.copy_context().run, args=(work,))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    assert len(req.roots) == 400
    assert req.roots == [
        r for r in captured.roots() if r.request_id == req.request_id
    ]



def test_span_on_a_fresh_thread_is_a_root():
    """A thread's spans nest only on that thread's stack: a span opened
    on a fresh thread is a root, even while the spawning thread has a
    span open and even when the thread runs in a copy of its context."""
    import contextvars
    import threading

    def work(name):
        with obs.span(name):
            pass

    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.span("spawner") as spawner:
            threads = [
                threading.Thread(target=work, args=("plain",)),
                threading.Thread(
                    target=contextvars.copy_context().run,
                    args=(work, "copied"),
                ),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    roots = {r.name: r for r in captured.roots()}
    assert set(roots) == {"spawner", "plain", "copied"}
    assert spawner.children == []
    for name in ("plain", "copied"):
        assert roots[name].parent_id is None
        assert roots[name].tid != spawner.tid
