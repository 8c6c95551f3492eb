"""``repro.obs`` — tracing, metrics, logging, profiling, and export.

The observability layer behind every hot path in the repo (DESIGN.md
§3, §9): CamAL's six inference stages, the trainer's epoch loop, the
sliding-window pipeline, and the benchmark harnesses all emit spans,
metrics, and events through the module-level singletons here.

Quick start::

    from repro import obs

    obs.enable()                       # collection is off by default
    with obs.tracer.capture() as captured, obs.request(kind="view"):
        model.localize(x)              # hot paths now record spans/metrics
    print(captured.find("camal.localize"))
    print(obs.to_openmetrics(obs.registry.snapshot()))
    obs.disable()

Design rules:

* **Zero cost when disabled** (the default): ``obs.span()`` returns a
  shared no-op context manager, ``obs.request()`` yields a shared no-op
  request, metric call sites guard on ``obs.enabled()``, and
  ``obs.log.event`` records nothing.
* **Bounded state**: the tracer keeps no span store — a root span goes
  to its request (which the flight recorder judges, keeping a bounded
  few) and to any open ``tracer.capture()`` block; the event buffer and
  the SLO window are bounded rings, so a long-lived serving process
  cannot OOM from telemetry.
* **No stdout from library code**: events go to an in-memory buffer and
  (when verbose) stderr; stdout belongs to the CLI.
* **Plain-dict exports everywhere** (``registry.snapshot()``,
  ``captured.to_dicts()``) so ``devicescope profile --json`` round-trips
  through ``json.loads``; :mod:`repro.obs.export` renders the same
  dicts as OpenMetrics text, Chrome trace-event JSON, and JSONL.
"""

from __future__ import annotations

from . import log, report
from .config import (
    disable,
    enable,
    enabled,
    enabled_scope,
    is_quiet,
    is_verbose,
    set_enabled,
    set_quiet,
    set_verbose,
)
from .context import (
    NOOP_REQUEST,
    Completion,
    RequestContext,
    current_request,
    format_traceparent,
    new_span_id_hex,
    new_trace_id,
    parse_traceparent,
    parse_tracestate,
    request,
)
from .flight import FlightRecorder
from .flight import recorder as flight_recorder
from .export import to_chrome_trace, to_jsonl, to_openmetrics
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    PROBABILITY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    linear_buckets,
)
from .profiler import ModuleProfiler
from .slo import GOOD_OUTCOMES, SloTracker, health_level
from .slo import tracker as slo_tracker
from .store import TelemetryStore, active_store, set_store
from .store import configure as configure_store
from .tracing import NOOP_SPAN, Span, Tracer
from . import context as _context

__all__ = [
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "enabled_scope",
    "is_verbose",
    "set_verbose",
    "is_quiet",
    "set_quiet",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "linear_buckets",
    "DEFAULT_TIME_BUCKETS",
    "PROBABILITY_BUCKETS",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "ModuleProfiler",
    "RequestContext",
    "Completion",
    "NOOP_REQUEST",
    "request",
    "current_request",
    "new_trace_id",
    "new_span_id_hex",
    "parse_traceparent",
    "parse_tracestate",
    "format_traceparent",
    "FlightRecorder",
    "flight_recorder",
    "SloTracker",
    "slo_tracker",
    "GOOD_OUTCOMES",
    "health_level",
    "TelemetryStore",
    "set_store",
    "active_store",
    "configure_store",
    "to_openmetrics",
    "to_chrome_trace",
    "to_jsonl",
    "registry",
    "tracer",
    "span",
    "log",
    "report",
    "reset",
    "warning",
]

#: Process-wide metrics registry used by the built-in instrumentation.
registry = MetricsRegistry()

#: Process-wide tracer used by the built-in instrumentation.
tracer = Tracer()

#: ``obs.span("name", **attrs)`` — open a span on the global tracer.
span = tracer.span


def reset() -> None:
    """Clear all recorded data (metrics, open span stacks, events,
    request ids, SLO window, flight ring); flags unchanged."""
    registry.reset()
    tracer.reset()
    log.reset()
    _context.reset()
    slo_tracker.reset()
    flight_recorder.reset()


def warning(name: str, help: str = "", **labels: object) -> None:
    """Bump a warning counter and record a matching log event.

    The library's replacement for ``warnings.warn`` on data-quality
    issues (duplicate timestamps, dropped readings, degraded windows):
    countable, labelled, and silent unless observability is enabled —
    so ``pytest -W error`` never trips on expected dirty-data paths.

    Inside an ``obs.request(...)`` scope, repeated emissions with the
    same (name, labels) are **deduplicated in the event buffer**: the
    first occurrence records an event and later ones bump that record's
    ``count`` field (the counter metric still counts every call). PR 4's
    per-row repair loop can fire hundreds of identical warnings on one
    degraded window; one summarizing event per request is the useful
    signal.
    """
    if not enabled():
        return
    registry.counter(name, help=help).inc(**labels)
    ctx = current_request()
    if ctx is not None:
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        record = ctx.warning_records.get(key)
        if record is not None:
            record["count"] = record.get("count", 1) + 1
            return
        ctx.warning_records[key] = log.event(name, **labels)
        return
    log.event(name, **labels)
