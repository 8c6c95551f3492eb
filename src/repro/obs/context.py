"""Request-scoped telemetry context (``obs.request``).

DeviceScope is interactive: one Prev/Next click triggers a full
detect+localize pass, several cache lookups, and possibly retries and
repairs. :class:`RequestContext` ties all of that telemetry back to the
click that caused it — every span, event, and warning emitted inside an
``obs.request(...)`` scope is stamped with the scope's ``request_id``.

The context rides on :mod:`contextvars`, so each HTTP handler thread
sees only its own request. Every span of a CamAL sweep opens on the
thread that asked for it, so it is stamped with that thread's request.

Semantics:

* **Zero-cost when disabled**: ``obs.request(...)`` returns a shared
  no-op context object and stamps nothing.
* **Reuse, don't nest**: entering ``obs.request`` while a request is
  already active *joins* the active request instead of allocating a new
  id. Library layers (``Playground.view``, ``CamAL.localize``,
  ``SlidingWindowLocalizer``) can therefore all declare request scopes;
  the outermost caller wins and gets unified attribution.
* **One completion record per request**: when the outermost scope
  exits, its wall time and outcome (``ok`` / ``degraded`` / ``error``)
  become an immutable :class:`Completion`, and :func:`complete` fans it
  out to the ``obs.request_seconds`` histogram, the
  ``obs.requests_total`` counter, a structured ``request`` log event,
  the global :class:`~repro.obs.slo.SloTracker`, the telemetry store and
  the flight recorder. The serve layer builds its own records (with
  route, tenant, status and CPU) and ends in the same function.
"""

from __future__ import annotations

import contextvars
import itertools
import re
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import config, flight

__all__ = [
    "Completion",
    "RequestContext",
    "current_request",
    "request",
    "reset",
    "NOOP_REQUEST",
    "new_trace_id",
    "new_span_id_hex",
    "parse_traceparent",
    "parse_tracestate",
    "format_traceparent",
    "bind",
    "complete",
]

#: Tuple-of-pairs key identifying one (name, labels) warning signature.
_WarningKey = tuple

# -- W3C Trace Context (traceparent / tracestate) ---------------------------
#
# ``traceparent: <version>-<trace-id>-<parent-id>-<flags>`` with version
# and flags as 2 lowercase hex digits, trace-id as 32 and parent-id as
# 16 — all-zero trace/parent ids are explicitly invalid per the spec.
# Parsing is strict-but-forgiving the way the spec asks: a malformed
# header is *ignored* (the server starts a fresh trace), never an error.

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})-"
    r"(?P<parent_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})(?P<rest>-.*)?$"
)

#: ``tracestate`` values past this size are dropped wholesale (the spec
#: allows discarding the header when it cannot be stored verbatim).
MAX_TRACESTATE_LEN = 512


def new_trace_id() -> str:
    """A fresh 128-bit W3C trace id (32 lowercase hex chars)."""
    return uuid.uuid4().hex


def new_span_id_hex() -> str:
    """A fresh 64-bit W3C span/parent id (16 lowercase hex chars)."""
    return uuid.uuid4().hex[:16]


def parse_traceparent(header: object) -> "tuple[str, str] | None":
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Returns None for anything invalid: wrong field sizes, uppercase hex,
    version ``ff`` (forbidden), an all-zero trace or parent id, or extra
    fields on a version-00 header (future versions may append fields, so
    they are accepted with the known prefix).
    """
    if not isinstance(header, str):
        return None
    match = _TRACEPARENT.match(header.strip())
    if match is None:
        return None
    version = match.group("version")
    if version == "ff":
        return None
    if version == "00" and match.group("rest"):
        return None
    trace_id = match.group("trace_id")
    parent_id = match.group("parent_id")
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id


def parse_tracestate(header: object) -> "str | None":
    """Pass a ``tracestate`` header through, or drop it.

    The value is vendor-opaque — we never interpret it, only echo it on
    the response so downstream vendors keep their correlation state.
    Oversized or non-string values are dropped (returns None).
    """
    if not isinstance(header, str):
        return None
    value = header.strip()
    if not value or len(value) > MAX_TRACESTATE_LEN:
        return None
    return value


def format_traceparent(trace_id: str, span_id_hex: str) -> str:
    """A version-00, sampled ``traceparent`` for response headers."""
    return f"00-{trace_id}-{span_id_hex}-01"


@dataclass
class RequestContext:
    """One user-facing unit of work (a view render, a localize call)."""

    request_id: str
    kind: str
    tags: dict = field(default_factory=dict)
    outcome: str = "ok"  # ok | degraded | error
    #: W3C trace identity: ``trace_id`` is the 32-hex id this request
    #: belongs to (client-supplied via ``traceparent`` or generated at
    #: scope entry), ``parent_span_id`` the client's 16-hex span id (if
    #: any), and ``span_id_hex`` this request's own 16-hex id — the one
    #: the serve layer echoes in the response ``traceparent``.
    trace_id: str = ""
    parent_span_id: "str | None" = None
    span_id_hex: str = ""
    #: First log record per (warning name, labels) — repeats bump the
    #: record's ``count`` instead of flooding the event buffer.
    warning_records: dict[_WarningKey, dict] = field(default_factory=dict)
    #: This request's completed root spans (worker threads included),
    #: judged by the flight recorder when the scope exits.
    roots: list = field(default_factory=list)

    def mark_degraded(self) -> None:
        """Downgrade the request verdict (errors are never overwritten)."""
        if self.outcome == "ok":
            self.outcome = "degraded"

    def set_outcome(self, outcome: str) -> None:
        """Override the verdict (e.g. ``client_error`` for handled 4xx);
        unlike the exception path, it survives a normal scope exit."""
        self.outcome = str(outcome)


@dataclass(frozen=True)
class Completion:
    """One finished request, as every sink reads it. ``admitted`` is
    False for a response made before the request could run (a shed, a
    bad tenant id, a 404); ``reason`` says why a request was refused."""

    request_id: str
    trace_id: str
    kind: str
    outcome: str
    duration_s: float
    route: str = ""
    tenant: str = ""
    status: int = 0
    cpu_ms: float = 0.0
    windows: int = 0
    reason: str = ""
    admitted: bool = True
    tags: dict = field(default_factory=dict)

    def labels(self) -> dict:
        """``tags`` plus whichever of route, tenant, status and reason
        are set: the labels of the log event, store row and flight entry."""
        out = dict(self.tags)
        for key in ("route", "tenant", "status", "reason"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        return out


class _NoopRequest:
    """Shared stand-in yielded while observability is disabled."""

    __slots__ = ()
    request_id = None
    kind = ""
    outcome = "ok"

    def mark_degraded(self) -> None:
        pass

    def set_outcome(self, outcome: str) -> None:
        pass


NOOP_REQUEST = _NoopRequest()

_CURRENT: contextvars.ContextVar[RequestContext | None] = contextvars.ContextVar(
    "repro_obs_request", default=None
)

_IDS = itertools.count(1)


def current_request() -> RequestContext | None:
    """The active :class:`RequestContext`, or None outside any scope."""
    return _CURRENT.get()


def new_request_id(kind: str) -> str:
    """Deterministic per-process id: ``<kind>-<sequence>``."""
    return f"{kind}-{next(_IDS):06d}"


@contextmanager
def request(
    kind: str = "request",
    request_id: "str | None" = None,
    trace_id: "str | None" = None,
    parent_span_id: "str | None" = None,
    **tags: object,
) -> Iterator[RequestContext]:
    """Open (or join) a request scope; see the module docstring.

    ``request_id`` / ``trace_id`` / ``parent_span_id`` let a caller
    bind identity it already negotiated with a client; all three
    default to fresh values. When an enclosing scope
    is joined the explicit identity is ignored — one click, one id.
    """
    if not config._ENABLED:
        yield NOOP_REQUEST  # type: ignore[misc]
        return
    active = _CURRENT.get()
    if active is not None:
        # Join the enclosing request: one click, one id.
        yield active
        return
    ctx = RequestContext(
        request_id=request_id or new_request_id(kind),
        kind=kind,
        tags=dict(tags),
        trace_id=trace_id or new_trace_id(),
        parent_span_id=parent_span_id,
        span_id_hex=new_span_id_hex(),
    )
    start = time.perf_counter()
    try:
        with bind(ctx):
            yield ctx
    except Exception:
        ctx.outcome = "error"
        raise
    finally:
        complete(
            Completion(
                ctx.request_id, ctx.trace_id, ctx.kind, ctx.outcome,
                time.perf_counter() - start, tags=ctx.tags,
            ),
            ctx.roots,
        )


@contextmanager
def bind(ctx: "RequestContext | None") -> Iterator[None]:
    """Make ``ctx`` the active request for the block, recording nothing
    on exit — for a transport that times and completes it itself."""
    token = _CURRENT.set(ctx)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def complete(record: Completion, roots=()) -> None:
    """Fan one completion record (and its root spans, for the flight
    recorder) out to every telemetry sink. A record that was not
    ``admitted`` stays out of the SLO window — a shed must not spend the
    error budget it protects — and the telemetry store, whose history
    tracks completed work."""
    if not config._ENABLED:  # disabled mid-request: drop silently
        return
    # Imported lazily: the package __init__ builds the singletons this
    # records into, and may still be executing at module import time.
    from . import log, slo, store
    from .. import obs

    labels = record.labels()
    obs.registry.histogram(
        "obs.request_seconds",
        help="wall time of request scopes (obs.request)",
    ).observe(record.duration_s, kind=record.kind)
    obs.registry.counter(
        "obs.requests_total",
        help="completed request scopes by kind and outcome",
    ).inc(kind=record.kind, outcome=record.outcome)
    log.event(
        "request",
        request_id=record.request_id,
        trace_id=record.trace_id,
        request_kind=record.kind,
        duration_s=record.duration_s,
        outcome=record.outcome,
        **labels,
    )
    if record.admitted:
        slo.tracker.record(record.duration_s, outcome=record.outcome)
        telemetry_store = store.active_store()
        # Best-effort: a full disk or revoked permissions degrade to a
        # counter bump, never break the request being recorded.
        try:
            if telemetry_store is not None:
                telemetry_store.record_request(
                    request_id=record.request_id,
                    kind=record.kind,
                    duration_s=record.duration_s,
                    outcome=record.outcome,
                    tags=labels,
                )
        except OSError:
            obs.registry.counter(
                "obs.store_append_failures_total",
                help="telemetry store appends dropped on disk errors",
            ).inc()
    flight.recorder.finish_request(record, roots)


def reset() -> None:
    """Restart id allocation (``obs.reset`` calls this).

    An in-flight request keeps its context object — resetting inside an
    active scope is not supported and simply renumbers future requests.
    """
    global _IDS
    _IDS = itertools.count(1)
