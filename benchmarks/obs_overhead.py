"""CI telemetry-overhead gate: instrumentation must stay nearly free.

Measures the CamAL fast path on a serving-shaped workload (a small batch
of 1-day windows) across three configurations, interleaving them
round-by-round so clock drift and CPU-frequency wander hit all sides
equally:

* **disabled** — observability off (the baseline).
* **enabled** — ``obs.request`` scope with a live
  :class:`~repro.obs.store.TelemetryStore` and the flight recorder
  judging every request — the full serving path including the
  per-request summary flush, not just the span fast path.
* **profiled** — enabled *plus* the
  :class:`~repro.obs.ContinuousProfiler` wall-clock stack sampler
  running at its serving-default rate (~33 Hz), the always-on
  production configuration.

Persists the measurement to
``benchmarks/results/BENCH_obs_overhead.json`` and exits nonzero if the
median enabled-vs-disabled **or** profiled-vs-disabled delta exceeds the
tolerance (default 5%).

Run from the repo root::

    PYTHONPATH=src python benchmarks/obs_overhead.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import CamAL
from repro.datasets import Standardizer
from repro.models import ResNetEnsemble

DEFAULT_OUT = (
    Path(__file__).resolve().parent / "results" / "BENCH_obs_overhead.json"
)
BATCH = 4
SAMPLES = 1440  # one day at 1-minute sampling
N_FILTERS = (4, 8, 8)  # quick mode — shape matters, scale does not


def measure(model, watts, profiler, rounds: int, warmup: int = 3):
    """Interleaved disabled/enabled/profiled timings for one workload.

    Alternating the configurations within each round (instead of timing
    one block after the other) keeps slow machine-level drift from
    masquerading as instrumentation overhead.
    """

    def run_disabled():
        obs.disable()
        model.localize_watts(watts)

    def run_enabled():
        obs.enable()
        with obs.request(kind="bench", workload="obs_overhead"):
            model.localize_watts(watts)

    # The profiled arm is the enabled arm with the sampler running. The
    # sampler is started/stopped *outside* the timed window: in
    # production it starts once at server boot, so what a request pays
    # is steady-state sampling, not thread spawn.
    run_profiled = run_enabled

    for _ in range(warmup):
        run_disabled()
        run_enabled()
        profiler.start()
        run_profiled()
        profiler.stop()
    disabled, enabled, profiled = [], [], []
    for _ in range(rounds):
        start = time.perf_counter()
        run_disabled()
        disabled.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_enabled()
        enabled.append(time.perf_counter() - start)
        profiler.start()
        start = time.perf_counter()
        run_profiled()
        profiled.append(time.perf_counter() - start)
        profiler.stop()
    obs.disable()
    return (
        np.asarray(disabled),
        np.asarray(enabled),
        np.asarray(profiled),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=15,
        help="interleaved timed rounds per configuration (after 3 warm-ups)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed median overhead fraction vs disabled, per arm",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ensemble = ResNetEnsemble((5, 7, 9, 15), n_filters=N_FILTERS, seed=args.seed)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=300.0, std=400.0))
    watts = np.random.default_rng(args.seed).uniform(
        0, 3000, size=(BATCH, SAMPLES)
    )
    # The serve layer's default sampling rate (~33 Hz), so the gate
    # prices exactly what /debug/pprof costs in production.
    profiler = obs.ContinuousProfiler(interval_s=0.03)

    with tempfile.TemporaryDirectory() as tmp:
        store = obs.TelemetryStore(tmp)
        obs.set_store(store)
        try:
            disabled, enabled, profiled = measure(
                model, watts, profiler, rounds=args.rounds
            )
        finally:
            profiler.stop()
            obs.disable()
            obs.set_store(None)
            store.close()
            obs.reset()

    disabled_s = float(np.median(disabled))
    enabled_s = float(np.median(enabled))
    profiled_s = float(np.median(profiled))
    overhead = enabled_s / disabled_s - 1.0
    profiled_overhead = profiled_s / disabled_s - 1.0
    payload = {
        "workload": {
            "batch": BATCH,
            "samples": SAMPLES,
            "n_filters": list(N_FILTERS),
            "members": len(ensemble),
        },
        "rounds": args.rounds,
        "disabled_median_s": disabled_s,
        "enabled_median_s": enabled_s,
        "profiled_median_s": profiled_s,
        "overhead_fraction": overhead,
        "profiled_overhead_fraction": profiled_overhead,
        "tolerance": args.tolerance,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"{BATCH}x{SAMPLES} samples, {len(ensemble)} members, "
        f"filters={N_FILTERS}: disabled={disabled_s * 1e3:.1f} ms  "
        f"enabled={enabled_s * 1e3:.1f} ms ({overhead:+.2%})  "
        f"profiled={profiled_s * 1e3:.1f} ms ({profiled_overhead:+.2%})"
    )
    print(f"wrote {args.out}")
    failed = False
    if overhead > args.tolerance:
        print(
            f"FAIL: telemetry overhead {overhead:.2%} exceeds the "
            f"{args.tolerance:.0%} budget"
        )
        failed = True
    if profiled_overhead > args.tolerance:
        print(
            f"FAIL: profiler+flight overhead {profiled_overhead:.2%} "
            f"exceeds the {args.tolerance:.0%} budget"
        )
        failed = True
    if failed:
        return 1
    print(
        f"OK: telemetry and profiler+flight overhead within the "
        f"{args.tolerance:.0%} budget"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
