"""The repository benchmark: the DeviceScope HTTP service under three workloads.

Run from the repository root::

    python3 servebench/run.py --workload browse --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload all          # browse, live, ingest

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced and then a traced phase and prints the per-layer metrics. Each
run checks every response and replays a seeded sample in-process; the
last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``. The exit status is 0 only when ``correct`` is
true, and 2 without a result when the checkout has no ``src/repro``.
Details (input properties, failure accounting per phase, p95 support,
generator lateness, the per-layer table and the spans of a traced run)
go to ``servebench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("browse", "live", "ingest")


def _print_result(workload: str, out: dict) -> None:
    details = out["details"]
    print(f"== {workload}  seed={details['seed']}  seconds={details['seconds']}  trace={int(details['trace'])}")
    for name, metric in out["result"]["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    for name, metric in details.get("reported", {}).items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}  (reported, not gated)")
    summary = {
        key: details[key]
        for key in (
            "attempted", "failed", "failures", "failure_examples", "setup", "warmup", "replay",
            "latency_samples", "latency_p95_samples_beyond", "generator_lateness_ms",
            "rss_hwm_mb", "outage_probe", "inputs", "written",
        )
        if key in details
    }
    print("  details " + json.dumps(summary, default=str))
    for row in details.get("layer_table", []):
        print(
            f"  layer {row['layer']:<16} self {row['self_ms_per_op']:>9.3f} ms/op"
            f"  share {row['self_share']:>6.3f}  incl {row['incl_share']:>6.3f}"
            f"  calls/op {row['calls_per_op']:>7.2f}"
        )


def _run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench.harness import run_workload

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir=HERE / "out")
    _print_result(args.workload, out)
    for problem in out["details"]["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
