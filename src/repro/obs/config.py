"""Global observability switches.

Instrumentation in the hot paths (CamAL stages, the trainer, the
benchmark harnesses) is *zero-cost when disabled*: every call site
either checks :func:`enabled` first or goes through
:meth:`repro.obs.tracing.Tracer.span`, which returns a shared no-op
context manager while the flag is off. The flag defaults to off so test
and benchmark timings are unaffected.

Verbosity is a separate axis: structured log events are *recorded*
whenever observability is enabled, but only *written* to the stream when
``verbose`` is on (or the emitter is forced, e.g. ``Trainer(verbose=True)``).
``quiet`` overrides everything — library code never writes a byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

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
]

_ENABLED = False
_VERBOSE = False
_QUIET = False


def enabled() -> bool:
    """Is the observability layer collecting data?"""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = bool(flag)


def enable() -> None:
    """Turn on metric/span/event collection process-wide."""
    set_enabled(True)


def disable() -> None:
    """Turn collection back off (the default state)."""
    set_enabled(False)


@contextmanager
def enabled_scope(flag: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) collection; restores on exit."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    try:
        yield
    finally:
        _ENABLED = previous


def is_verbose() -> bool:
    return _VERBOSE


def set_verbose(flag: bool) -> None:
    global _VERBOSE
    _VERBOSE = bool(flag)


def is_quiet() -> bool:
    return _QUIET


def set_quiet(flag: bool) -> None:
    global _QUIET
    _QUIET = bool(flag)

