"""In-memory spans around calls into the program's layers.

A span records a name, the layer it belongs to, start and end on the
process-wide ``perf_counter`` clock, its parent span and the operation
(op) it serves; every span of one op shares the op id. Spans nest per
thread through a thread-local stack. A span opened on a thread that is
not working on an op is not recorded, so only benchmark traffic is
traced.

An op crosses threads: the client thread sends a request and a server
handler thread executes it. The client puts the op id and its request
span id into the W3C ``traceparent`` header (trace id = op id, parent
id = span id), and the server-side root span is opened with those ids
(:meth:`SpanRecorder.span` with ``op_id``), so server spans hang under
the client request that caused them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "traceparent",
    "parse_traceparent_ids",
]


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: "int | None"
    op_id: int
    name: str
    layer: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("span_id", "op_id", "attrs")

    def __init__(self, span_id: int, op_id: int, attrs: dict):
        self.span_id = span_id
        self.op_id = op_id
        self.attrs = attrs


def traceparent(op_id: int, span_id: int) -> str:
    """The header that carries ``(op_id, span_id)`` to the server."""
    return f"00-{op_id:032x}-{span_id:016x}-01"


def parse_traceparent_ids(trace: "dict | None") -> "tuple[int, int] | None":
    """``(op_id, parent_span_id)`` from the service's parsed trace dict."""
    if not trace or not trace.get("parent_span_id"):
        return None
    return int(trace["trace_id"], 16), int(trace["parent_span_id"], 16)


class SpanRecorder:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def new_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        op_id: "int | None" = None,
        parent_id: "int | None" = None,
        **attrs,
    ):
        """Record one span; yields its handle, or None when not in an op.

        Without ``op_id`` the span joins the op the thread is working on
        (parent = the innermost open span). With ``op_id`` it starts a
        root for that op on this thread, under ``parent_id``.
        """
        stack = self._stack()
        if op_id is None:
            if not stack:
                yield None
                return
            op_id, parent_id = stack[-1].op_id, stack[-1].span_id
        handle = _OpenSpan(self.new_id(), op_id, attrs)
        stack.append(handle)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(handle.span_id, parent_id, op_id, name, layer, start, end, attrs)
            )

    def wrap(self, fn, name: str, layer: str, on_return=None):
        """``fn`` recording a span per call.

        ``on_return(attrs, args, kwargs, result)`` may add attributes
        from the call's arguments and result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as handle:
                out = fn(*args, **kwargs)
                if handle is not None and on_return is not None:
                    on_return(handle.attrs, args, kwargs, out)
                return out

        return traced


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id → its duration minus the part its children cover.

    Children are the spans naming it as parent, on any thread; a child
    interval is clipped to its parent's, and overlapping children count
    once.
    """
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(s.start, s.end, children.get(s.span_id, []))
        for s in spans
    }
