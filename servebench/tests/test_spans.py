import threading

import pytest

from servebench.spans import Span, SpanRecorder, parse_traceparent_ids, self_times, traceparent


def _span(span_id, parent_id, op_id, name, start, end):
    return Span(span_id, parent_id, op_id, name, "layer", start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 1, "parent", 0.0, 10.0),
        _span(2, 1, 1, "a", 2.0, 5.0),
        _span(3, 1, 1, "b", 4.0, 8.0),  # overlaps a: [2, 8) counts once
        _span(4, 3, 1, "grandchild", 4.5, 7.5),
        _span(5, 1, 1, "clipped", 9.0, 12.0),  # only [9, 10) is inside
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0 - 3.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(3.0)


def test_batch_leader_sweeping_other_ops_rows():
    # Op 1's handler leads a batch: it waits for followers, then sweeps
    # two rows (its own and op 2's). Op 2's handler only waits.
    spans = [
        _span(10, None, 1, "execute", 0.0, 20.0),
        _span(11, 10, 1, "MicroBatcher.localize", 1.0, 19.0),
        _span(12, 11, 1, "CamAL.localize_watts", 5.0, 18.0),
        _span(13, 12, 1, "forward_features", 6.0, 17.0),
        _span(20, None, 2, "execute", 2.0, 21.0),
        _span(21, 20, 2, "MicroBatcher.localize", 3.0, 19.5),
    ]
    selfs = self_times(spans)
    assert selfs[11] == pytest.approx(5.0)  # leader: batch window wait + scatter
    assert selfs[21] == pytest.approx(16.5)  # follower: waits through the sweep
    assert selfs[12] == pytest.approx(2.0)  # the sweep minus the backbone
    assert selfs[13] == pytest.approx(11.0)
    assert selfs[10] == pytest.approx(2.0)
    assert selfs[20] == pytest.approx(2.5)
    # The shared sweep is counted once, in the leader's op.
    assert {s.op_id for s in spans if s.name == "CamAL.localize_watts"} == {1}


def test_recorder_links_a_server_thread_to_the_client_request():
    recorder = SpanRecorder()

    def server(header):
        version, trace_id, parent_id, flags = header.split("-")
        ids = parse_traceparent_ids({"trace_id": trace_id, "parent_span_id": parent_id})
        with recorder.span("execute", "serve.service", op_id=ids[0], parent_id=ids[1]):
            with recorder.span("inner", "core.camal"):
                pass

    with recorder.span("op", "client", op_id=7) as op:
        with recorder.span("http.request", "serve.http") as request:
            thread = threading.Thread(target=server, args=(traceparent(7, request.span_id),))
            thread.start()
            thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert {s.op_id for s in recorder.spans} == {7}
    assert by_name["http.request"].parent_id == op.span_id
    assert by_name["execute"].parent_id == request.span_id
    assert by_name["inner"].parent_id == by_name["execute"].span_id


def test_spans_outside_an_op_are_not_recorded():
    recorder = SpanRecorder()
    traced = recorder.wrap(lambda x: x + 1, "f", "layer")
    assert traced(1) == 2
    assert recorder.spans == []
    with recorder.span("op", "client", op_id=1):
        assert traced(2) == 3
    assert [s.name for s in recorder.spans] == ["f", "op"]


def test_traceparent_round_trip():
    header = traceparent(5, 9)
    _, trace_id, parent_id, _ = header.split("-")
    assert len(trace_id) == 32 and len(parent_id) == 16
    assert parse_traceparent_ids({"trace_id": trace_id, "parent_span_id": parent_id}) == (5, 9)
    assert parse_traceparent_ids({"trace_id": trace_id, "parent_span_id": None}) is None
