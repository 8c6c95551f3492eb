"""W3C trace-context parsing: every malformed header degrades to None.

The spec's hard rule is that a bad ``traceparent`` must never error the
request — the receiver starts a fresh trace instead. These tests pin
the full edge matrix so the serve layer can trust ``parse_traceparent``
to be total.
"""

import pytest

from repro import obs
from repro.obs.context import (
    MAX_TRACESTATE_LEN,
    format_traceparent,
    new_span_id_hex,
    new_trace_id,
    parse_traceparent,
    parse_tracestate,
)

TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
PARENT = "00f067aa0ba902b7"


def test_valid_header_parses():
    assert parse_traceparent(f"00-{TRACE}-{PARENT}-01") == (TRACE, PARENT)


def test_flags_are_ignored_not_validated():
    # Any two hex digits are acceptable flags (we don't honor sampling
    # bits, we just propagate identity).
    assert parse_traceparent(f"00-{TRACE}-{PARENT}-00") == (TRACE, PARENT)
    assert parse_traceparent(f"00-{TRACE}-{PARENT}-ff") == (TRACE, PARENT)


def test_surrounding_whitespace_tolerated():
    assert parse_traceparent(f"  00-{TRACE}-{PARENT}-01 ") == (TRACE, PARENT)


def test_future_version_with_extra_fields_accepted():
    # Versions > 00 may append fields; the known prefix still parses.
    assert parse_traceparent(f"42-{TRACE}-{PARENT}-01-extra-junk") == (
        TRACE,
        PARENT,
    )


@pytest.mark.parametrize(
    "header",
    [
        None,
        42,
        b"00-" + TRACE.encode() + b"-" + PARENT.encode() + b"-01",
        "",
        "garbage",
        f"00-{TRACE}-{PARENT}",  # missing flags
        f"00-{TRACE}-{PARENT}-1",  # short flags
        f"00-{TRACE}-{PARENT}-012",  # long flags
        f"00-{TRACE[:-1]}-{PARENT}-01",  # short trace id
        f"00-{TRACE}x-{PARENT}-01",  # long trace id
        f"00-{TRACE}-{PARENT[:-1]}-01",  # short parent id
        f"00-{TRACE.upper()}-{PARENT}-01",  # uppercase hex forbidden
        f"0-{TRACE}-{PARENT}-01",  # one-digit version
        f"ff-{TRACE}-{PARENT}-01",  # version ff forbidden
        f"00-{TRACE}-{PARENT}-01-extra",  # version 00 takes no extras
        f"00-{'0' * 32}-{PARENT}-01",  # all-zero trace id
        f"00-{TRACE}-{'0' * 16}-01",  # all-zero parent id
    ],
)
def test_invalid_headers_return_none(header):
    assert parse_traceparent(header) is None


def test_tracestate_passthrough_and_bounds():
    assert parse_tracestate("congo=t61rcWkgMzE,rojo=00f067aa") == (
        "congo=t61rcWkgMzE,rojo=00f067aa"
    )
    assert parse_tracestate("  padded  ") == "padded"
    assert parse_tracestate("") is None
    assert parse_tracestate("   ") is None
    assert parse_tracestate(None) is None
    assert parse_tracestate("x" * MAX_TRACESTATE_LEN) is not None
    assert parse_tracestate("x" * (MAX_TRACESTATE_LEN + 1)) is None


def test_format_round_trips_through_parse():
    trace_id, span = new_trace_id(), new_span_id_hex()
    assert parse_traceparent(format_traceparent(trace_id, span)) == (
        trace_id,
        span,
    )


def test_new_ids_are_well_formed_and_distinct():
    a, b = new_trace_id(), new_trace_id()
    assert len(a) == 32 and a != b and int(a, 16) != 0
    s, t = new_span_id_hex(), new_span_id_hex()
    assert len(s) == 16 and s != t and int(s, 16) != 0


def test_request_binds_supplied_trace_identity():
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.request(
            kind="view", trace_id=TRACE, parent_span_id=PARENT
        ) as req:
            assert req.trace_id == TRACE
            assert req.parent_span_id == PARENT
            assert len(req.span_id_hex) == 16
            with obs.span("work"):
                pass
    span = captured.find("work")
    assert span.trace_id == TRACE
    done = obs.log.events("request")[0]
    assert done["trace_id"] == TRACE


def test_request_generates_trace_identity_when_absent():
    obs.enable()
    with obs.tracer.capture() as captured, obs.request(kind="view") as req:
        assert len(req.trace_id) == 32
        assert req.parent_span_id is None
        with obs.span("work"):
            pass
    assert captured.find("work").trace_id == req.trace_id


def test_member_forward_spans_carry_the_trace_id():
    import numpy as np

    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble((5, 9), n_filters=(4, 8, 8), seed=0)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=300.0, std=400.0))
    watts = np.random.default_rng(0).uniform(0, 3000, size=(1, 512))
    obs.enable()
    with obs.tracer.capture() as captured:
        with obs.request(kind="view", trace_id=TRACE):
            model.localize_watts(watts)
    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    spans = [s for root in captured.roots() for s in walk(root)]
    assert spans, "no spans captured"
    members = [s for s in spans if s.name == "ensemble.member_forward"]
    assert members, "member forward spans missing"
    assert all(m.trace_id == TRACE for m in members)
    assert all(r.trace_id == TRACE for r in captured.roots())
