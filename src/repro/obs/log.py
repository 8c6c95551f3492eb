"""Structured event emitter replacing ad-hoc ``print()`` in library code.

Library modules call ``obs.log.event("trainer.epoch", epoch=3, loss=0.1)``
instead of printing. The event is:

* **recorded** in an in-memory ring buffer whenever observability is
  enabled (so reports/tests can inspect training progress), and
* **written** to the configured stream (default ``sys.stderr``) only
  when the global verbose flag is on or the caller forces it (the
  ``Trainer(verbose=True)`` path) — and never when ``quiet`` is set.

Nothing here ever writes to stdout: stdout belongs to the CLI's actual
output (tables, reports), not to progress chatter.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import IO

from . import config, context

__all__ = [
    "event",
    "events",
    "reset",
    "set_stream",
    "format_record",
]

#: Event retention — a fixed-size ring buffer so a long-lived serving
#: process holds bounded telemetry state (see DESIGN.md §9).
DEFAULT_CAPACITY = 10_000

_BUFFER: deque[dict] = deque(maxlen=DEFAULT_CAPACITY)
_STREAM: IO[str] | None = None  # None → sys.stderr at emit time


def set_stream(stream: IO[str] | None) -> None:
    """Redirect emitted lines (None restores the default stderr)."""
    global _STREAM
    _STREAM = stream


def format_record(record: dict) -> str:
    """``name key=value ...`` with floats shortened for readability."""
    name = record.get("event", "?")
    parts = [name]
    for key, value in record.items():
        if key in ("event", "ts"):
            continue
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def event(name: str, _force: bool = False, **fields: object) -> dict:
    """Record (and maybe emit) one structured event; returns the record."""
    record = {"event": name, **fields}
    if config._ENABLED:
        record["ts"] = time.time()
        request = context.current_request()
        if request is not None and "request_id" not in record:
            record["request_id"] = request.request_id
        if request is not None and "trace_id" not in record:
            trace_id = getattr(request, "trace_id", "")
            if trace_id:
                record["trace_id"] = trace_id
        _BUFFER.append(record)
    if (_force or config._VERBOSE) and not config._QUIET:
        stream = _STREAM if _STREAM is not None else sys.stderr
        stream.write(format_record(record) + "\n")
    return record


def events(name: str | None = None) -> list[dict]:
    """Recorded events, optionally filtered by event name."""
    if name is None:
        return list(_BUFFER)
    return [record for record in _BUFFER if record.get("event") == name]


def reset() -> None:
    _BUFFER.clear()
