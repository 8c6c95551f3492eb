"""Streaming incremental-localization bench + gate for ``repro.stream``.

Measures the tentpole claim of the streaming layer: after a meter
append, re-localizing the live window through
:class:`~repro.stream.SlidingCamAL` (which splices cached per-member
feature maps and re-sweeps only the receptive-field tail) is a multiple
of the cost of the cold full-window recompute the PR 3 path would pay —
while producing bit-identical results (pinned by ``tests/stream``; this
bench re-asserts it on every timed append as a sanity belt).

Two arms over the *same* appends and the *same* windows:

* **incremental** — one warm :class:`~repro.stream.SlidingCamAL` over a
  :class:`~repro.stream.LiveStore`; each timed round appends ``--chunk``
  samples and calls ``live.localize()``.
* **cold** — ``CamAL.localize_watts`` over the identical window the
  incremental arm just analyzed (the full-window recompute a
  non-streaming service performs per refresh).

Hardware normalization: the headline ``speedup`` is the ratio of the
two arms' median per-update latency, measured in the same process on
the same machine — machine-free by construction, like the other gates
in this directory. A second ``sublinear`` block measures the
incremental arm at two window lengths; per-append cost is dominated by
the fixed-size tail re-sweep, so doubling the window must not double
the update cost (``--max-cost-growth``, default 1.6, gates it).

Run from the repo root::

    PYTHONPATH=src python benchmarks/stream_throughput.py            # persist JSON
    PYTHONPATH=src python benchmarks/stream_throughput.py --gate \\
        --min-speedup 5.0                                # persist + CI gate
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from common import RESULTS, persist_then_decide, synthetic_watts, untrained_camal

DEFAULT_OUT = RESULTS / "BENCH_stream_throughput.json"


def _drive(model, window: int, chunk: int, appends: int, seed: int,
           verify: bool) -> dict:
    """Stream ``appends`` chunks; time both arms on identical windows."""
    from repro.stream import LiveStore, SlidingCamAL

    feed = synthetic_watts(window + chunk * (appends + 4), seed)
    store = LiveStore(capacity=window * 4, on_full="evict")
    live = SlidingCamAL(model, store, window=window)
    store.append(feed[:window])
    live.localize()  # warm: the first sync is a full sweep by design
    pos = window
    # Two un-timed appends warm any lazy allocation in either arm.
    for _ in range(2):
        store.append(feed[pos : pos + chunk])
        pos += chunk
        loc = live.localize()
        model.localize_watts(store.read(loc.start, loc.end - loc.start)[None])
    incremental, cold, reuse = [], [], []
    for _ in range(appends):
        store.append(feed[pos : pos + chunk])
        pos += chunk
        t0 = time.perf_counter()
        loc = live.localize()
        incremental.append(time.perf_counter() - t0)
        reuse.append(loc.reuse_ratio)
        watts = store.read(loc.start, loc.end - loc.start)[None]
        t0 = time.perf_counter()
        result = model.localize_watts(watts)
        cold.append(time.perf_counter() - t0)
        if verify:
            for field in ("probabilities", "detected", "cam", "attention",
                          "status", "uncertainty"):
                a = getattr(loc.result, field)
                b = getattr(result, field)
                if not np.array_equal(a, b):
                    raise AssertionError(
                        f"incremental != cold on {field} at window "
                        f"[{loc.start}, {loc.end})"
                    )
    inc = np.asarray(incremental)
    cd = np.asarray(cold)
    return {
        "window": window,
        "chunk": chunk,
        "appends": appends,
        "incremental_p50_ms": round(float(np.percentile(inc, 50)) * 1e3, 3),
        "incremental_p95_ms": round(float(np.percentile(inc, 95)) * 1e3, 3),
        "cold_p50_ms": round(float(np.percentile(cd, 50)) * 1e3, 3),
        "cold_p95_ms": round(float(np.percentile(cd, 95)) * 1e3, 3),
        "mean_reuse_ratio": round(float(np.mean(reuse)), 4),
        "speedup": round(
            float(np.percentile(cd, 50)) / float(np.percentile(inc, 50)), 3
        ),
    }


def run_bench(args) -> dict:
    model = untrained_camal(args.kernel_sizes, args.filters, args.seed)
    day = _drive(
        model, args.window, args.chunk, args.appends, args.seed,
        verify=not args.no_verify,
    )
    # Sublinearity probe: the same append stream against a double-length
    # window. Only the incremental arm matters here (the cold arm is
    # linear in the window by definition), so fewer rounds suffice.
    probe_appends = max(args.appends // 2, 5)
    small = _drive(
        model, args.window // 2, args.chunk, probe_appends, args.seed + 1,
        verify=False,
    )
    big = _drive(
        model, args.window, args.chunk, probe_appends, args.seed + 1,
        verify=False,
    )
    growth = (
        big["incremental_p50_ms"] / max(small["incremental_p50_ms"], 1e-9)
    )
    return {
        "bench": "stream_throughput",
        "config": {
            "window": args.window,
            "chunk": args.chunk,
            "appends": args.appends,
            "kernel_sizes": list(args.kernel_sizes),
            "n_filters": list(args.filters),
            "seed": args.seed,
            "verified_bit_identical": not args.no_verify,
        },
        "day_window": day,
        "sublinear": {
            "half_window": small,
            "full_window": big,
            # 2x the window must cost far less than 2x per append; the
            # tail re-sweep is window-size-independent.
            "incremental_cost_growth": round(growth, 3),
        },
        "speedup": day["speedup"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", type=int, default=1440,
                        help="sliding window length (default: one day)")
    parser.add_argument("--chunk", type=int, default=15,
                        help="samples per append (a 15-min meter push)")
    parser.add_argument("--appends", type=int, default=30,
                        help="timed appends per arm")
    parser.add_argument("--kernel-sizes", type=int, nargs="+",
                        default=[5, 7, 9, 15],
                        help="bench ensemble kernel sizes (the paper §II.A "
                        "shape, where the backbone dominates per-update cost)")
    parser.add_argument("--filters", type=int, nargs=3, default=[16, 32, 32],
                        help="bench ensemble channel widths (paper §II.A)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the per-append bit-identity assertion")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to persist the bench JSON")
    parser.add_argument("--gate", action="store_true",
                        help="also check thresholds (exit 1 on regression)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="--gate floor for cold/incremental per-update "
                        "latency at the 1-day window (the ISSUE 9 bar)")
    parser.add_argument("--max-cost-growth", type=float, default=1.6,
                        help="--gate ceiling for per-append cost growth "
                        "when the window doubles (sublinearity)")
    args = parser.parse_args(argv)

    result = run_bench(args)
    day = result["day_window"]
    checks = [
        ("speedup", result["speedup"], args.min_speedup, ">="),
        ("incremental_cost_growth",
         result["sublinear"]["incremental_cost_growth"],
         args.max_cost_growth, "<="),
    ]
    return persist_then_decide(
        result,
        args.out,
        checks if args.gate else None,
        subject="streaming",
        note=(
            f"(per-append {day['incremental_p50_ms']:.1f} ms vs cold "
            f"{day['cold_p50_ms']:.1f} ms at {day['window']} samples, "
            f"reuse {day['mean_reuse_ratio']:.0%})"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
