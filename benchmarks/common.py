"""What the in-process gates in this directory share.

``batch_throughput.py``, ``stream_throughput.py`` and ``obs_overhead.py``
drive the same synthetic meter through untrained CamAL models, write
their ``--out`` JSON before anything is judged, and end on one
``metric  measured  limit  verdict`` table whose exit status is the
gate's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESULTS = Path(__file__).resolve().parent / "results"


def synthetic_watts(n: int, seed: int) -> np.ndarray:
    """``n`` samples of 120–280 W base load with periodic kettle spikes."""
    rng = np.random.default_rng(seed)
    watts = rng.uniform(80, 240, size=n) + 40.0
    for start in range(20, n - 16, 61):
        watts[start : start + 8] = 2600.0
    return np.round(watts, 2)


def untrained_camal(kernel_sizes, n_filters, seed: int):
    """A CamAL over a fresh ResNet ensemble in eval mode (no training)."""
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble(
        tuple(kernel_sizes), n_filters=tuple(n_filters), seed=seed
    )
    ensemble.eval()
    return CamAL(ensemble, Standardizer(mean=300.0, std=400.0))


def persist_then_decide(
    result: dict, out: Path, checks=None, subject: str = "", note: str = ""
) -> int:
    """Print and write ``result`` to ``out``, then judge ``checks``.

    ``checks`` is a list of ``(metric, measured, limit, op)`` with ``op``
    ``">="`` or ``"<="``; ``None`` persists without a gate. Writing comes
    first so the evidence exists whichever way the gate goes. Returns
    the exit status: 1 if any check fails, else 0.
    """
    text = json.dumps(result, indent=2)
    print(text)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"wrote {out}")
    if checks is None:
        return 0
    width = max(len("metric"), *(len(check[0]) for check in checks))
    print(f"{'metric':<{width}} {'measured':>10} {'limit':>10}  verdict")
    failures = []
    for name, measured, limit, op in checks:
        ok = measured >= limit if op == ">=" else measured <= limit
        print(
            f"{name:<{width}} {measured:>10.3f} {limit:>10.3f}  "
            f"{'ok' if ok else 'REGRESSED'}"
        )
        if not ok:
            failures.append(name)
    if note:
        print(note)
    if failures:
        print(f"FAIL: {subject} gate failed on: {', '.join(failures)}")
        return 1
    print(f"OK: {subject} within its gate")
    return 0
