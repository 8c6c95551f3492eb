"""Serving throughput bench + regression gate for ``repro.serve``.

Boots a real :class:`~repro.serve.http.DeviceScopeServer` on an
ephemeral port and drives it with N concurrent synthetic tenants
(default 8), each running the full lifecycle over actual HTTP: create
house → ingest → attach → alternating detect/localize over a sliding
sequence of windows (so the per-tenant result cache sees a realistic
hit/miss mix). Client-side latencies are recorded per request and the
aggregate is persisted to ``benchmarks/results/BENCH_serve_throughput.json``:
requests/s, p50/p95 latency, shed/error counts, and the worst
per-tenant error-budget burn rate.

Hardware normalization: absolute RPS
and p95 are incomparable across machines, so the bench also re-measures
a *direct-compute yardstick* — the median latency of the same CamAL
localization called in-process on an identical window, no HTTP, no
tenancy. The gate then compares ratios:

* ``p95_over_compute`` = served p95 / yardstick — how much the serving
  stack inflates one inference. Rises if the HTTP/tenancy/admission
  layers grow overhead; unchanged on a uniformly slower machine.
* ``rps_x_compute`` = RPS x yardstick — throughput in units of
  "direct inferences per request slot", likewise machine-free.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_throughput.py             # bench + persist
    PYTHONPATH=src python benchmarks/serve_throughput.py --gate \\
        --users 4 --requests 6 --tolerance 0.5                       # CI gate

``--gate`` compares against the committed root-level
``BENCH_serve_throughput.json`` (``--baseline`` overrides).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

DEFAULT_OUT = (
    Path(__file__).resolve().parent / "results" / "BENCH_serve_throughput.json"
)
#: The committed gate baseline, measured with the CI flags
#: (``--users 4 --requests 6``); refresh it with
#: ``--out BENCH_serve_throughput.json`` from the repo root.
DEFAULT_BASELINE = (
    Path(__file__).resolve().parents[1] / "BENCH_serve_throughput.json"
)


def _rpc(base: str, method: str, path: str, body=None, tenant=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if tenant is not None:
        request.add_header("X-Tenant-Id", tenant)
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _synthetic_watts(n: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    watts = rng.uniform(80, 240, size=n) + 40.0
    for start in range(40, n - 20, 97):  # periodic kettle-ish spikes
        watts[start : start + 12] = 2600.0
    return [round(float(w), 2) for w in watts]


class TenantUser:
    """One synthetic tenant: lifecycle setup + a stream of inferences."""

    def __init__(self, base: str, index: int, requests: int, samples: int):
        self.base = base
        self.tenant = f"bench-{index}"
        self.index = index
        self.requests = requests
        self.samples = samples
        self.latencies: list[float] = []
        self.shed = 0
        self.errors: list[str] = []

    def setup(self) -> None:
        n_steps = self.samples + 8 * self.requests + 8
        status, _ = _rpc(
            self.base, "POST", "/houses",
            body={
                "house_id": "home",
                "watts": _synthetic_watts(n_steps, seed=100 + self.index),
            },
            tenant=self.tenant,
        )
        if status != 201:
            raise RuntimeError(f"{self.tenant}: create -> {status}")
        status, _ = _rpc(
            self.base, "POST", "/houses/home/devices",
            body={"appliance": "kettle"}, tenant=self.tenant,
        )
        if status != 201:
            raise RuntimeError(f"{self.tenant}: attach -> {status}")

    def run(self, barrier: threading.Barrier) -> None:
        try:
            barrier.wait(timeout=60)
            for i in range(self.requests):
                route = "detect" if i % 2 else "localize"
                # Slide every other window so the cache sees a mix of
                # cold computes and warm hits, like a GUI session.
                body = {
                    "appliance": "kettle",
                    "start": 8 * (i // 2),
                    "length": self.samples,
                }
                start = time.perf_counter()
                status, _ = _rpc(
                    self.base, "POST", f"/houses/home/{route}",
                    body=body, tenant=self.tenant,
                )
                elapsed = time.perf_counter() - start
                if status == 200:
                    self.latencies.append(elapsed)
                elif status == 503:
                    self.shed += 1
                else:
                    self.errors.append(f"{route} -> {status}")
        except Exception as err:  # surfaced by the main thread
            self.errors.append(repr(err))


def _yardstick(bank, samples: int, rounds: int, seed: int) -> float:
    """Median direct-compute latency of the same model, no serving."""
    model, lock = bank.get("kettle")
    rng = np.random.default_rng(seed)
    watts = rng.uniform(0, 3000, size=(1, samples))
    with lock:
        model.localize_watts(watts)  # warm-up
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            model.localize_watts(watts)
            times.append(time.perf_counter() - start)
    return float(np.median(times))


def run_bench(args) -> dict:
    from repro import obs
    from repro.serve import (
        AdmissionController,
        DeviceScopeService,
        ModelBank,
        TenantRegistry,
        build_server,
    )

    obs.enable()
    bank = ModelBank(appliances=("kettle",), seed=args.seed)
    service = DeviceScopeService(
        bank=bank,
        registry=TenantRegistry(),
        admission=AdmissionController(),
    )
    users = []
    with build_server(bank=bank, service=service).running() as server:
        users = [
            TenantUser(server.url, i, args.requests, args.samples)
            for i in range(args.users)
        ]
        for user in users:
            user.setup()
        barrier = threading.Barrier(args.users)
        threads = [
            threading.Thread(target=user.run, args=(barrier,), name=user.tenant)
            for user in users
        ]
        wall_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall_start
        _, health = _rpc(server.url, "GET", "/health")
    obs.disable()
    obs.reset()
    obs.registry.clear()

    errors = [e for u in users for e in u.errors]
    if errors:
        raise RuntimeError("bench requests failed: " + "; ".join(errors[:5]))
    latencies = np.asarray([l for u in users for l in u.latencies])
    shed = sum(u.shed for u in users)
    completed = int(latencies.size) + shed
    burns = [
        t["slo"]["burn_rate"]
        for t in health.get("tenants", {}).values()
        if t.get("slo")
    ]
    burns = [b for b in burns if isinstance(b, (int, float)) and not math.isnan(b)]
    compute_median_s = _yardstick(bank, args.samples, args.rounds, args.seed)
    p95_s = float(np.percentile(latencies, 95))
    rps = completed / wall
    return {
        "bench": "serve_throughput",
        "config": {
            "users": args.users,
            "requests_per_user": args.requests,
            "samples": args.samples,
            "seed": args.seed,
            "appliance": "kettle",
        },
        "wall_s": round(wall, 4),
        "rps": round(rps, 3),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 3),
        "p95_ms": round(p95_s * 1e3, 3),
        "requests_ok": int(latencies.size),
        "requests_shed": shed,
        "max_tenant_burn_rate": round(max(burns), 4) if burns else None,
        "compute_median_s": round(compute_median_s, 6),
        "p95_over_compute": round(p95_s / compute_median_s, 4),
        "rps_x_compute": round(rps * compute_median_s, 4),
    }


def gate(args, result: dict) -> int:
    baseline = json.loads(args.baseline.read_text())
    checks = [
        # Serving overhead per request must not inflate...
        ("p95_over_compute", result["p95_over_compute"],
         baseline["p95_over_compute"] * (1.0 + args.tolerance), "<="),
        # ...and normalized throughput must not collapse.
        ("rps_x_compute", result["rps_x_compute"],
         baseline["rps_x_compute"] * (1.0 - args.tolerance), ">="),
    ]
    failures = []
    print(f"{'metric':<18} {'measured':>10} {'baseline':>10} {'limit':>10}  verdict")
    for name, measured, limit, op in checks:
        ok = measured <= limit if op == "<=" else measured >= limit
        print(
            f"{name:<18} {measured:>10.4f} {baseline[name]:>10.4f} "
            f"{limit:>10.4f}  {'ok' if ok else 'REGRESSED'}"
        )
        if not ok:
            failures.append(name)
    if failures:
        print(
            f"FAIL: serving regressed >{args.tolerance:.0%} vs baseline "
            f"on: {', '.join(failures)}"
        )
        return 1
    print("OK: serving throughput within tolerance of the stored baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=8,
                        help="concurrent synthetic tenants")
    parser.add_argument("--requests", type=int, default=12,
                        help="inference requests per tenant")
    parser.add_argument("--samples", type=int, default=256,
                        help="window length per inference")
    parser.add_argument("--rounds", type=int, default=5,
                        help="yardstick rounds for the compute median")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to persist the bench JSON")
    parser.add_argument("--gate", action="store_true",
                        help="after persisting, compare against --baseline")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed BENCH_serve_throughput.json for --gate")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed normalized-ratio regression for --gate")
    args = parser.parse_args(argv)

    result = run_bench(args)
    print(json.dumps(result, indent=2))
    # Persist first: the result is the evidence whichever way the gate goes.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return gate(args, result) if args.gate else 0


if __name__ == "__main__":
    sys.exit(main())
