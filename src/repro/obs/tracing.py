"""Span-based tracing for the CamAL / training / benchmark hot paths.

Usage::

    with obs.span("camal.localize", n_windows=16) as sp:
        with obs.span("camal.ensemble_forward"):
            ...
        sp.set(detected=int(detected.sum()))

Spans nest via a thread-local stack. The tracer keeps no span store of
its own: a completed *root* span goes to the request it closed in and to
every open :meth:`Tracer.capture` block, and is dropped otherwise. Each
span records wall time and — when :mod:`tracemalloc` is tracing — an
estimate of net memory allocated inside the span, which for this numpy
codebase is dominated by array allocations (numpy routes its buffers
through the tracemalloc domain).

Spans additionally carry correlation identity: a process-unique
``span_id``, the ``parent_id`` of the enclosing span on this thread's
stack (``None`` for a root — a span opened on a fresh thread is a root
there), the ``request_id`` of the active ``obs.request(...)`` scope,
the emitting thread id, and a ``perf_counter`` start timestamp —
everything the Chrome-trace exporter
(:func:`repro.obs.export.to_chrome_trace`) needs to lay spans out on
per-thread tracks.

Wiring: a root span opened inside an ``obs.request(...)`` scope is
appended to that request's ``RequestContext.roots``; the flight
recorder judges those trees when the request ends. A caller that wants
whole trees — ``devicescope profile``, ``devicescope obs --trace-out``,
a test — collects them with ``with obs.tracer.capture() as captured:``,
which sees the roots of every thread (each HTTP handler's included).

When observability is disabled (:mod:`repro.obs.config`), ``span()``
returns a shared no-op context manager: one flag check, no allocation,
so instrumented code pays nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Iterator

from . import config, context

__all__ = ["Span", "Capture", "Tracer", "NOOP_SPAN"]

#: Process-unique span id allocation (atomic under the GIL).
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed region; a node in the trace tree."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "duration_s",
        "error",
        "alloc_bytes",
        "span_id",
        "parent_id",
        "request_id",
        "trace_id",
        "tid",
        "start_s",
        "_t0",
        "_mem0",
    )

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.duration_s = 0.0
        self.error: str | None = None
        self.alloc_bytes: int | None = None
        self.span_id = 0
        self.parent_id: int | None = None
        self.request_id: str | None = None
        self.trace_id: str | None = None
        self.tid = 0
        self.start_s = 0.0
        self._t0 = 0.0
        self._mem0 = 0

    def set(self, **attrs: object) -> None:
        """Attach attributes after entry (counts, shapes, outcomes)."""
        self.attrs.update(attrs)

    def find(self, name: str) -> "Span | None":
        """Depth-first search for a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_s": self.duration_s,
            "span_id": self.span_id,
            "tid": self.tid,
            "start_s": self.start_s,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.alloc_bytes is not None:
            out["alloc_bytes"] = self.alloc_bytes
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def walk(self):
        """Yield self and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.2f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Reusable, stateless stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass

    def find(self, name: str) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens/closes one real span."""

    __slots__ = ("_tracer", "_span", "_request")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._span = Span(name, attrs)
        self._request = None

    def __enter__(self) -> Span:
        span = self._span
        span.span_id = next(_SPAN_IDS)
        span.tid = threading.get_ident()
        stack = self._tracer._stack()
        span.parent_id = stack[-1].span_id if stack else None
        request = context.current_request()
        if request is not None:
            self._request = request
            span.request_id = request.request_id
            span.trace_id = request.trace_id or None
        stack.append(span)
        if tracemalloc.is_tracing():
            span._mem0 = tracemalloc.get_traced_memory()[0]
        span._t0 = time.perf_counter()
        span.start_s = span._t0
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_s = time.perf_counter() - span._t0
        if tracemalloc.is_tracing():
            span.alloc_bytes = tracemalloc.get_traced_memory()[0] - span._mem0
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._close(span, self._request)
        return False


class Capture:
    """The root spans that closed, on any thread, while one
    :meth:`Tracer.capture` block ran — in closing order."""

    __slots__ = ("_roots",)

    def __init__(self) -> None:
        self._roots: list[Span] = []

    def roots(self) -> list[Span]:
        """Captured root spans, oldest first."""
        return list(self._roots)

    def find(self, name: str) -> Span | None:
        """Newest span anywhere in the captured trees with this name."""
        for root in reversed(self.roots()):
            found = root.find(name)
            if found is not None:
                return found
        return None

    def all_spans(self) -> list[Span]:
        """Every captured span (roots and descendants), flattened."""
        return [span for root in self.roots() for span in root.walk()]

    def request_spans(self, request_id: str) -> list[Span]:
        """All spans stamped with ``request_id`` — the request's tree,
        flattened (reassemble parent/child structure through
        ``span_id``/``parent_id``)."""
        return [
            span
            for span in self.all_spans()
            if span.request_id == request_id
        ]

    def to_dicts(self) -> list[dict]:
        return [root.to_dict() for root in self.roots()]


class Tracer:
    """Owns the thread-local span stacks and files each closed root span
    with its request and with every open :meth:`capture`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._captures: tuple[Capture, ...] = ()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a span (no-op context manager while disabled)."""
        if not config._ENABLED:
            return NOOP_SPAN
        return _SpanContext(self, name, attrs)

    @contextmanager
    def capture(self) -> Iterator[Capture]:
        """Collect every root span that closes, on any thread, while the
        block runs. Captures nest; each sees every root."""
        captured = Capture()
        with self._lock:
            self._captures += (captured,)
        try:
            yield captured
        finally:
            with self._lock:
                self._captures = tuple(
                    c for c in self._captures if c is not captured
                )

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _close(self, span: Span, request=None) -> None:
        stack = self._stack()
        # The closing span is on top unless user code misused the API;
        # remove it wherever it is so exceptions can't wedge the stack.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        elif self._captures:
            # One lock for both: a request's roots keep the order every
            # capture sees them in.
            with self._lock:
                if request is not None:
                    request.roots.append(span)
                for captured in self._captures:
                    captured._roots.append(span)
        elif request is not None:
            request.roots.append(span)

    def reset(self) -> None:
        """Forget every thread's open-span stack."""
        self._local = threading.local()
