"""Standard-format telemetry exporters (pure functions, no collection).

Three interchange formats over the existing snapshot structures:

* :func:`to_openmetrics` — Prometheus/OpenMetrics text exposition of a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`: ``# HELP`` /
  ``# TYPE`` headers, label escaping per spec, histogram
  ``_bucket``/``_sum``/``_count`` series with cumulative counts and a
  ``+Inf`` bucket, terminated by ``# EOF``.
* :func:`to_chrome_trace` — Chrome trace-event JSON (``ph: "X"``
  complete events with ``pid``/``tid``/``ts``/``dur``/``args``) from a
  :class:`~repro.obs.tracing.Capture` or its ``to_dicts()`` export; one
  track per emitting thread, request ids in ``args``. Opens directly in
  Perfetto / ``about://tracing``.
* :func:`to_jsonl` — structured log events as JSON Lines for shipping.

All three are pure functions over already-collected state: exporting
costs nothing on the hot path, and exporting empty state yields valid
empty documents.
"""

from __future__ import annotations

import json
import math
import re

from .tracing import Capture

__all__ = ["to_openmetrics", "to_chrome_trace", "to_jsonl"]


# -- OpenMetrics -----------------------------------------------------------

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_CLEAN = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_CLEAN = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """Sanitize a dotted repo metric name into a legal exposition name
    (``camal.cam_mean`` → ``camal_cam_mean``)."""
    cleaned = _NAME_CLEAN.sub("_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _label_name(name: str) -> str:
    cleaned = _LABEL_CLEAN.sub("_", name)
    if cleaned[:1].isdigit() or not cleaned:
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = {str(k): str(v) for k, v in labels.items()}
    if extra:
        merged.update({str(k): str(v) for k, v in extra.items()})
    if not merged:
        return ""
    inner = ",".join(
        f'{_label_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


#: The ``devicescope_slo_*`` gauge series derived from one
#: :meth:`~repro.obs.slo.SloTracker.snapshot` — (suffix, key, help).
_SLO_GAUGES = (
    ("requests", "count", "requests in the rolling SLO window"),
    ("attainment", "attainment", "fraction of recent requests that were good"),
    ("burn_rate", "burn_rate", "error-budget burn rate (1.0 = at budget)"),
    ("objective_ms", "objective_ms", "latency objective in milliseconds"),
)


def _slo_lines(slo: dict) -> list[str]:
    """``devicescope_slo_*`` exposition lines for one SLO snapshot.

    With no recorded requests only ``requests``/``objective_ms`` are
    emitted — attainment/burn/percentiles are NaN then, and publishing
    NaN gauges would trip strict scrapers for no signal.
    """
    lines: list[str] = []
    has_data = bool(slo.get("count", 0))
    for suffix, key, help_text in _SLO_GAUGES:
        if not has_data and suffix not in ("requests", "objective_ms"):
            continue
        name = f"devicescope_slo_{suffix}"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(slo.get(key, 0.0))}")
    if has_data:
        name = "devicescope_slo_latency_ms"
        lines.append(
            f"# HELP {name} rolling-window request latency percentiles"
        )
        lines.append(f"# TYPE {name} gauge")
        for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"),
                              ("0.99", "p99_ms")):
            lines.append(
                f"{name}{_format_labels({'quantile': quantile})} "
                f"{_format_value(slo.get(key, 0.0))}"
            )
    return lines


def to_openmetrics(snapshot: dict, slo: dict | None = None) -> str:
    """Render a registry snapshot as OpenMetrics text exposition.

    An empty snapshot (or one whose metrics hold no series) renders a
    valid empty document — just the ``# EOF`` terminator. Passing an
    :meth:`~repro.obs.slo.SloTracker.snapshot` as ``slo`` appends the
    ``devicescope_slo_*`` gauge series (attainment, burn rate, latency
    percentiles) so ``/metrics`` consumers see SLO health, not just raw
    counters.
    """
    lines: list[str] = []
    for raw_name in sorted(snapshot):
        metric = snapshot[raw_name]
        kind = metric.get("type", "gauge")
        series = metric.get("series", [])
        if not series:
            continue
        name = _metric_name(raw_name)
        help_text = metric.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            edges = [float(e) for e in metric.get("edges", [])]
            for entry in series:
                labels = entry.get("labels", {})
                buckets = entry.get("buckets", [])
                cumulative = 0
                for edge, count in zip(edges, buckets):
                    cumulative += int(count)
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, {'le': _format_value(edge)})}"
                        f" {cumulative}"
                    )
                total = int(entry.get("count", 0))
                lines.append(
                    f"{name}_bucket{_format_labels(labels, {'le': '+Inf'})}"
                    f" {total}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)}"
                    f" {_format_value(entry.get('sum', 0.0))}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {total}")
        else:
            for entry in series:
                lines.append(
                    f"{name}{_format_labels(entry.get('labels', {}))}"
                    f" {_format_value(entry.get('value', 0.0))}"
                )
    if slo is not None:
        lines.extend(_slo_lines(slo))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- Chrome trace events ---------------------------------------------------


def to_chrome_trace(source: "Capture | list[dict]") -> dict:
    """Convert captured span trees into Chrome trace-event JSON.

    Accepts a :class:`~repro.obs.tracing.Capture` or its ``to_dicts()``
    output. Returns the ``{"traceEvents": [...]}`` object form —
    ``json.dump`` it to a file and open in Perfetto or
    ``about://tracing``. Spans become ``ph: "X"`` complete events with
    microsecond ``ts``/``dur`` (normalized so the earliest span starts at
    0), one ``tid`` track per emitting thread, and
    ``request_id``/``span_id``/``parent_id`` in ``args``. An empty
    capture yields a valid empty document.
    """
    roots = source.to_dicts() if isinstance(source, Capture) else source
    flat: list[dict] = []

    def walk(node: dict) -> None:
        flat.append(node)
        for child in node.get("children", []):
            walk(child)

    for root in roots:
        walk(root)
    if not flat:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    # Assign tracks in span *start* order, not closing order: root
    # spans are collected in completion order, so a short worker span
    # can precede the long dispatching root that spawned it — track 0
    # ("main") must go to the earliest-starting thread regardless.
    flat.sort(key=lambda node: node.get("start_s", 0.0))
    t0 = flat[0].get("start_s", 0.0)
    tid_tracks: dict[int, int] = {}
    events: list[dict] = []
    for node in flat:
        raw_tid = int(node.get("tid", 0))
        if raw_tid not in tid_tracks:
            tid_tracks[raw_tid] = len(tid_tracks)
        args = dict(node.get("attrs", {}))
        for key in ("span_id", "parent_id", "request_id", "trace_id", "error"):
            if node.get(key) is not None:
                args[key] = node[key]
        events.append(
            {
                "name": node.get("name", "?"),
                "cat": "obs",
                "ph": "X",
                "pid": 1,
                "tid": tid_tracks[raw_tid],
                "ts": (node.get("start_s", t0) - t0) * 1e6,
                "dur": max(node.get("duration_s", 0.0), 0.0) * 1e6,
                "args": args,
            }
        )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": track,
            "args": {"name": "main" if track == 0 else f"worker-{track}"},
        }
        for track in sorted(tid_tracks.values())
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


# -- JSON Lines ------------------------------------------------------------


def to_jsonl(events: list[dict]) -> str:
    """Structured log records as JSON Lines (one object per line).

    Non-JSON-native values are stringified. An empty event list yields
    an empty string (a valid empty JSONL document).
    """
    if not events:
        return ""
    return (
        "\n".join(json.dumps(record, default=str) for record in events) + "\n"
    )
