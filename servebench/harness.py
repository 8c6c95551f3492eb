"""Boot the served stack, drive one workload over HTTP, measure, check.

The stack is the one ``devicescope serve`` runs: ``build_server`` with
``obs`` enabled and a 250 ms objective, the continuous profiler,
``MicroBatcher`` and ``AdmissionController`` at their defaults, over a
``ModelBank`` serving ``kettle`` and ``washing_machine`` with the
DeviceScope app's default ensemble (kernels 5/7/9/15, filters 8/16/16).
The ensembles are seeded and untrained: inference cost does not depend
on the weights.

Clients and server share this process; the clients use at most two
threads and two connections at a time (the machine's core count).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from .layers import instrument, layer_metrics
from .spans import SpanRecorder, traceparent
from .stats import MIN_BEYOND, median, tail_percentile
from .workloads import APPLIANCES, Request, Sizes, make_plan

__all__ = ["BENCHMARK", "SPEC", "END_TO_END", "REPORTED", "PER_LAYER", "run_workload"]

HERE = Path(__file__).resolve().parent
#: The metric catalogue (names, units, order) ...
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: ... and what it has no key for: limits, rate, meanings, layer map.
SPEC = json.loads((HERE / "spec.json").read_text())

OBJECTIVE_MS = 250.0  # devicescope serve --objective-ms default
#: The DeviceScope app's default ensemble (app/session.py), seeded.
MODEL = {
    "appliances": APPLIANCES,
    "profile": "ukdale",
    "seed": 0,
    "kernel_sizes": (5, 7, 9, 15),
    "n_filters": (8, 16, 16),
}
CLIENT_THREADS = 2
TIMEOUT_S = 30.0
#: Set-ups per untraced run: at least ``SETUPS``, and more (up to
#: ``MAX_SETUPS``) until they add up to ``SETUP_BUDGET_S``, so a short
#: set-up is sampled often; ``setup_s`` is their median.
SETUPS = 5
MAX_SETUPS = 11
SETUP_BUDGET_S = 1.0
#: The timed phase is cut into this many equal slices, and every timed
#: figure is the median over the ``KEPT_SLICES`` slices in which the
#: hypervisor stole the least CPU time from the machine (``/proc/stat``):
#: a burst of load from other guests on the host then moves the figures
#: only if it lasts through over half the run. The p95 is supported by
#: the samples beyond each kept slice's p95, summed.
SLICES = 20
KEPT_SLICES = 10
#: Resident memory is sampled this often during the timed phase. The
#: process's all-time high-water mark also counts the checks' own memory
#: after the timed phase and any single transient spike; the median of
#: the slices' highest samples follows the memory kept while serving.
RSS_EVERY_S = 0.05
#: Before the timed phase the service's SLO window is filled with cheap
#: house look-ups from the plan's tenants. Admission control reads that
#: window on every request, at a cost that grows with its fill, so a
#: timed phase that began with it empty would time a latency that climbs
#: until the window is full (2048 requests: 8 to 30 s of the workloads'
#: own traffic). The plan's own ops then run untimed for ``WARMUP_OPS_S``.
WARMUP_OPS_S = 2.0
#: The fill stops after this long even if the window is not full.
FILL_MAX_S = 20.0
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

#: Metric → unit, in report order: the gated end-to-end metrics, which
#: the result object carries, the ones only printed with the details,
#: and the per-layer metrics of a traced run.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
REPORTED = {name: m["unit"] for name, m in SPEC["reported"].items()}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


# -- transport ---------------------------------------------------------------


def send(port: int, request, header: "str | None" = None) -> tuple:
    """One request on a fresh connection: ``(status, body)``.

    ``header`` is the ``traceparent`` of a timed op's request. Status 0
    means no response arrived (timeout or connection error).
    """
    headers = {"X-Tenant-Id": request.tenant}
    if header is not None:
        headers["traceparent"] = header
    if request.body is not None:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request(request.method, request.path, body=request.body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as err:
        return 0, repr(err).encode()
    finally:
        conn.close()


# -- set-up --------------------------------------------------------------------


@dataclass
class Stack:
    server: object
    setup_s: float
    requests: int
    failed: list

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def bank(self):
        return self.server.service.bank

    def fetch(self, method: str, path: str, tenant: str) -> dict:
        status, body = send(self.port, Request(method, path, tenant))
        if status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {status}")
        return json.loads(body)


def boot(plan) -> Stack:
    """Server boot, model build and the plan's set-up requests, timed."""
    from repro import obs
    from repro.serve import ModelBank, build_server

    t0 = time.perf_counter()
    obs.reset()
    obs.enable()
    obs.slo_tracker.objective_ms = OBJECTIVE_MS
    bank = ModelBank(**MODEL)
    server = build_server(port=0, bank=bank, slo_objective_ms=OBJECTIVE_MS)
    server.start()
    for appliance in APPLIANCES:
        bank.get(appliance)  # the lazy build a first request would pay
    failed = []
    for request in plan.setup:
        status, body = send(server.server_address[1], request)
        problem = checks.check_response(plan, None, request, status, body)
        if problem:
            failed.append(f"{request.method} {request.path}: {problem}")
    return Stack(server, time.perf_counter() - t0, len(plan.setup), failed)


# -- the timed phase -----------------------------------------------------------


@dataclass
class OpRecord:
    client: int
    op: object
    due: "float | None"
    start: float
    end: float
    statuses: list = field(default_factory=list)
    bodies: list = field(default_factory=list)
    error: "str | None" = None


def _run_op(port, recorder, op_id, client, op, due) -> OpRecord:
    statuses, bodies = [], []
    for request in op.prelude:
        status, body = send(port, request)
        statuses.append(status)
        bodies.append(body)
    start = time.perf_counter()
    with recorder.span("op", "client", op_id=op_id):
        for request in op.requests:
            with recorder.span("http.request", "serve.http") as span:
                status, body = send(port, request, traceparent(op_id, span.span_id))
            statuses.append(status)
            bodies.append(body)
    return OpRecord(client, op, due, start, time.perf_counter(), statuses, bodies)


@dataclass
class Timed:
    records: list
    #: ``(perf_counter, process_time)`` at the start and at the end of
    #: each of the ``SLICES`` equal slices of the timed phase.
    marks: list
    elapsed_s: float
    #: The highest resident memory sampled in each slice, in MB.
    rss_mb: list = field(default_factory=list)
    #: The machine's steal time in each slice, as a share of its CPU time.
    steal: list = field(default_factory=list)


def _clients(plan) -> int:
    return CLIENT_THREADS if plan.open_loop else len(plan.clients)


@contextmanager
def _client_threads(target, n: int):
    """Run ``target(client)`` on ``n`` threads; joined when the block ends."""
    errors: list = []

    def guarded(client):
        try:
            target(client)
        except Exception as err:  # a crashed client must fail the run, not hang it
            errors.append(repr(err))

    threads = [
        threading.Thread(target=guarded, args=(c,), name=f"bench-client-{c}") for c in range(n)
    ]
    for t in threads:
        t.start()
    try:
        yield
    finally:
        for t in threads:
            t.join()
    if errors:
        raise RuntimeError(f"client thread failed: {errors[0]}")


@dataclass
class Warmup:
    records: list
    #: Closed loop: where each client's timed phase resumes its op list.
    resume: list
    elapsed_s: float
    #: House look-ups sent to fill the SLO window, and its fill after them.
    lookups: int
    slo_window_fill: int
    slo_window: int


def _lookups(plan) -> list:
    """``GET /houses/{id}`` for the first house each tenant creates in set-up."""
    first: dict = {}
    for request in plan.setup:
        if request.method == "POST" and request.path == "/houses":
            first.setdefault(request.tenant, json.loads(request.body)["house_id"])
    return [Request("GET", f"/houses/{hid}", tenant) for tenant, hid in first.items()]


def warm_up(plan, port: int, ops_s: float) -> Warmup:
    """Fill the SLO window with look-ups, then send the plan's ops for ``ops_s``.

    Closed-loop clients start on their own op lists and the timed phase
    resumes where each stopped; an open-loop plan sends its warm-up
    ticks back to back from ``CLIENT_THREADS`` threads.
    """
    from repro import obs

    tracker = obs.slo_tracker
    lookups = _lookups(plan)
    n = _clients(plan)
    per_client: list = [[] for _ in range(n)]
    resume = [0] * n
    lock = threading.Lock()
    ticks = iter(plan.warmup)
    sent = [0] * CLIENT_THREADS

    def fill(c: int) -> None:
        request = lookups[c % len(lookups)]
        while len(tracker) < tracker.window and time.perf_counter() < fill_end:
            status, body = send(port, request)
            sent[c] += 1
            if problem := checks.check_response(plan, None, request, status, body):
                raise RuntimeError(f"warm-up look-up: {problem}")

    def run_ops(c: int) -> None:
        while time.perf_counter() < ops_end:
            if plan.open_loop:
                with lock:
                    op = next(ticks, None)
                if op is None:
                    return
            else:
                ops = plan.clients[c]
                op = ops[resume[c] % len(ops)]
                resume[c] += 1
            per_client[c].append(_run_op(port, _NO_SPANS, 0, c, op, None))

    t0 = time.perf_counter()
    fill_end = t0 + FILL_MAX_S
    with _client_threads(fill, CLIENT_THREADS):
        pass
    ops_end = time.perf_counter() + ops_s
    with _client_threads(run_ops, n):
        pass
    return Warmup(
        [r for rs in per_client for r in rs], resume, time.perf_counter() - t0,
        sum(sent), len(tracker), tracker.window,
    )


def drive(
    plan, port: int, seconds: float, recorder: SpanRecorder, resume: "list | None" = None
) -> Timed:
    """Run the plan for ``seconds``: closed loop per client, or open loop.

    Closed-loop client ``c`` starts at op ``resume[c]`` of its list.
    """
    per_client: list = [[] for _ in range(_clients(plan))]
    resume = resume or [0] * len(per_client)
    lock = threading.Lock()
    schedule = iter(enumerate(plan.clients[0])) if plan.open_loop else None

    def closed(client: int) -> None:
        ops = plan.clients[client]
        i = resume[client]
        while time.perf_counter() < deadline:
            op_id = (client << 32) | (i + 1)
            per_client[client].append(_run_op(port, recorder, op_id, client, ops[i % len(ops)], None))
            i += 1

    def opened(client: int) -> None:
        while True:
            with lock:
                item = next(schedule, None)
            if item is None:
                return
            i, op = item
            due = t0 + op.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            per_client[client].append(_run_op(port, recorder, i + 1, client, op, due))

    marks = [(time.perf_counter(), time.process_time())]
    t0 = marks[0][0]
    deadline = t0 + seconds
    rss = []
    steal = [_host_cpu()]
    with _client_threads(opened if plan.open_loop else closed, len(per_client)):
        for k in range(1, SLICES + 1):
            slice_end = t0 + seconds * k / SLICES
            peak = _rss_mb()
            while (left := slice_end - time.perf_counter()) > 0:
                time.sleep(min(RSS_EVERY_S, left))
                peak = max(peak, _rss_mb())
            marks.append((time.perf_counter(), time.process_time()))
            rss.append(peak)
            steal.append(_host_cpu())
    records = [r for rs in per_client for r in rs]
    end = max((r.end for r in records), default=time.perf_counter())
    shares = [(b[0] - a[0]) / max(b[1] - a[1], 1) for a, b in zip(steal, steal[1:])]
    return Timed(records, marks, end - t0, rss, shares)


def _host_cpu() -> tuple:
    """Machine-wide (steal, total) CPU ticks from ``/proc/stat``."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def _rss_mb() -> float:
    """The process's resident memory now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * PAGE_BYTES / 2**20


# -- measurement ------------------------------------------------------------------


def _failure_kind(record, problems) -> str:
    statuses = record.statuses
    if 0 in statuses:
        return "timeout"
    if 503 in statuses:
        return "shed"
    if any(s >= 300 for s in statuses):
        return "http_error"
    return "mismatch" if problems else ""


def summarize(plan, timed: Timed, limit_ms: float) -> dict:
    kinds = {"timeout": 0, "shed": 0, "http_error": 0, "mismatch": 0}
    latencies, ended = [], []
    for record in timed.records:
        problems = checks.check_op(plan, record)
        kind = _failure_kind(record, problems)
        if kind:
            kinds[kind] += 1
            record.error = problems[0] if problems else kind
            continue
        began = record.due if record.due is not None else record.start
        latency = (record.end - began) * 1e3
        latencies.append(latency)
        ended.append((record, latency))
    attempted = len(timed.records)
    succeeded = len(latencies)
    slices = list(zip(timed.marks, timed.marks[1:]))
    kept = set(range(len(slices)))
    if len(timed.steal) == len(slices) > KEPT_SLICES:
        kept = set(sorted(kept, key=lambda k: (timed.steal[k], k))[:KEPT_SLICES])
    rates, goodputs, cpu_per_op, p50s, p95s, rss = [], [], [], [], [], []
    for k, ((t_a, cpu_a), (t_b, cpu_b)) in enumerate(slices):
        if k not in kept:
            continue
        done = [latency for r, latency in ended if t_a <= r.end < t_b]
        rates.append(len(done) / (t_b - t_a))
        goodputs.append(sum(latency <= limit_ms for latency in done) / (t_b - t_a))
        cpu_per_op.append((cpu_b - cpu_a) * 1e3 / max(len(done), 1))
        if k < len(timed.rss_mb):
            rss.append(timed.rss_mb[k])
        if done:
            p50s.append(median(done))
            p95s.append(tail_percentile(done))
    beyond = sum(p.n_beyond for p in p95s)
    pooled = tail_percentile(latencies or [float("nan")])
    out = {
        "attempted": attempted,
        "succeeded": succeeded,
        "failed": attempted - succeeded,
        "failures": kinds,
        "failure_examples": sorted({r.error for r in timed.records if r.error})[:5],
        "elapsed_s": timed.elapsed_s,
        "metrics": {
            "ops_per_s": median(rates),
            "goodput_ops_per_s": median(goodputs),
            "latency_p50_ms": median(p50s) if p50s else float("nan"),
            "latency_p95_ms": median(p.value for p in p95s) if p95s else float("nan"),
            "cpu_ms_per_op": median(cpu_per_op),
            "rss_peak_mb": median(rss) if rss else float("nan"),
        },
        "slices": {"steal": timed.steal, "kept": sorted(kept), "ops_per_s": rates,
                   "cpu_ms_per_op": cpu_per_op, "latency_p50_ms": p50s,
                   "latency_p95_ms": [p.value for p in p95s], "rss_peak_mb": rss},
        "pooled_latency_ms": {"p50": median(latencies) if latencies else None, "p95": pooled.value},
        "latency_samples": succeeded,
        "latency_p95_samples_beyond": beyond,
        "latency_p95_supported": beyond >= MIN_BEYOND,
    }
    if plan.open_loop:
        late = [(r.start - r.due) * 1e3 for r in timed.records]
        lateness = tail_percentile(late)
        out["generator_lateness_ms"] = {"p50": median(late), "p95": lateness.value}
    return out


def outage_probe(plan, port: int) -> dict:
    """Send the plan's probe page views in turn; count degraded and shed.

    Outside the timed phase and its figures: it shows what the served
    stack does with a house's own meter outages (``workloads._filled``).
    Well-formed 503 sheds are what it measures; any other bad response
    is a problem the run reports.
    """
    degraded = shed = 0
    shed_views, problems, reasons = [], [], {}
    for k, op in enumerate(plan.probe):
        for request in op.prelude:
            status, body = send(port, request)
            if problem := checks.check_response(plan, None, request, status, body):
                problems.append(f"probe set-up: {problem}")
        for request in op.requests:
            status, body = send(port, request)
            if status == 503:
                shed += 1
                try:
                    reason = json.loads(body)["reason"]
                except (ValueError, KeyError):
                    reason = "none given"
                    problems.append("probe: a 503 without a reason")
                reasons[reason] = reasons.get(reason, 0) + 1
                if not shed_views or shed_views[-1] != k:
                    shed_views.append(k)
            elif problem := checks.check_response(plan, op, request, status, body):
                problems.append(f"probe: {problem}")
            elif json.loads(body).get("verdict") == "degraded":
                degraded += 1
    return {
        "page_views": len(plan.probe),
        "requests": sum(len(op.requests) for op in plan.probe),
        "degraded_answers": degraded,
        "shed_requests": shed,
        "shed_reasons": reasons,
        "shed_page_views": len(shed_views),
        "first_shed_view": shed_views[0] if shed_views else None,
        "problems": problems,
    }


def _cache_totals(service) -> dict:
    totals = {"hits": 0, "misses": 0}
    for tenant in service.registry.tenants():
        stats = tenant.cache.stats()
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
    return totals


def _delta(after: dict, before: dict, keys) -> dict:
    return {k: after[k] - before[k] for k in keys}


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _account(plan, records, elapsed_s: float) -> dict:
    """Ops attempted, succeeded and failed in an untimed phase."""
    problems = [p[0] for r in records if (p := checks.check_op(plan, r))]
    return {"attempted": len(records), "succeeded": len(records) - len(problems),
            "failed": len(problems), "failure_examples": sorted(set(problems))[:5],
            "seconds": elapsed_s}


def _phase(plan, seconds, seed, limit_ms, traced: bool, warmup_ops_s: float):
    """Boot, warm up, drive, check and close one server; returns its report."""
    stack = boot(plan)
    recorder = SpanRecorder()
    service = stack.server.service
    try:
        warm = warm_up(plan, stack.port, warmup_ops_s)
        warmup = dict(_account(plan, warm.records, warm.elapsed_s), lookups=warm.lookups,
                      slo_window_fill=warm.slo_window_fill, slo_window=warm.slo_window)
        if traced:
            cache0, batch0 = _cache_totals(service), service.batcher.stats()
            im2col: list = []
            models = [stack.bank.get(a)[0] for a in APPLIANCES]
            with instrument(recorder, models, im2col) as profilers:
                timed = drive(plan, stack.port, seconds, recorder, warm.resume)
            report = summarize(plan, timed, limit_ms)
            layers, table = layer_metrics(
                recorder, profilers, im2col, report["succeeded"], timed.elapsed_s,
                _delta(_cache_totals(service), cache0, ("hits", "misses")),
                _delta(service.batcher.stats(), batch0, ("batches", "windows", "coalesced")),
            )
            report.update(layer_metrics=layers, layer_table=table)
        else:
            timed = drive(plan, stack.port, seconds, _NO_SPANS, warm.resume)
            report = summarize(plan, timed, limit_ms)
        report["rss_hwm_mb"] = _rss_hwm_mb()
        checked, mismatches = checks.replay(plan, timed.records, stack.bank, stack.fetch, seed)
        if plan.probe:
            report["outage_probe"] = outage_probe(plan, stack.port)
    finally:
        stack.server.close()
        gc.collect()
    report.update(
        setup={"attempted": stack.requests, "failed": len(stack.failed),
               "succeeded": stack.requests - len(stack.failed),
               "failure_examples": stack.failed[:5]},
        warmup=warmup,
        replay={"checked": checked, "mismatches": mismatches},
    )
    return report, stack.setup_s, recorder


class _NoSpans(SpanRecorder):
    """Hands out span ids for the trace header but records nothing."""

    def span(self, name, layer, op_id=None, parent_id=None, **attrs):
        return _NoSpan(self.new_id())


class _NoSpan:
    def __init__(self, span_id):
        self.span_id = span_id

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPANS = _NoSpans()


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = Sizes(),
    out_dir: "Path | None" = None,
    warmup_ops_s: float = WARMUP_OPS_S,
) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    spec = SPEC["workloads"][workload]
    limit_ms = float(spec["latency_limit_ms"])
    plan = make_plan(workload, seed, seconds, SPEC["workloads"]["live"]["offered_rate_ops_per_s"], sizes)
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "inputs": plan.properties, "latency_limit_ms": limit_ms}
    if trace:
        untraced, _, _ = _phase(plan, seconds, seed, limit_ms, False, warmup_ops_s)
        report, _, recorder = _phase(plan, seconds, seed, limit_ms, True, warmup_ops_s)
        base = untraced["metrics"]["latency_p50_ms"]
        overhead = (report["metrics"]["latency_p50_ms"] - base) / base * 100.0
        report["layer_metrics"]["obs.trace_overhead_pct"] = overhead
        details["untraced"] = {
            k: untraced[k] for k in ("metrics", "attempted", "failed", "warmup", "replay")
        }
        metrics = report["layer_metrics"]
        units = PER_LAYER
        phases = [untraced, report]
    else:
        setup_times = []
        # A close waits out the server loop's 0.5 s poll; let it do so
        # while the next set-up runs.
        with ThreadPoolExecutor(max_workers=MAX_SETUPS) as closer:
            closed = []
            while len(setup_times) < SETUPS - 1 or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS - 1
            ):
                stack = boot(plan)
                setup_times.append(stack.setup_s)
                closed.append(closer.submit(stack.server.close))
                del stack
            for future in closed:
                future.result()
        del closed
        gc.collect()  # free the old stacks now, not at an arbitrary later point
        report, setup_s, recorder = _phase(plan, seconds, seed, limit_ms, False, warmup_ops_s)
        setup_times.append(setup_s)
        metrics = dict(report["metrics"], setup_s=median(setup_times))
        details["setup_s_samples"] = setup_times
        details["reported"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in REPORTED.items()
        }
        units = END_TO_END
        phases = [report]
    details.update({k: v for k, v in report.items() if k not in ("metrics",)})
    probe_problems = [p.get("outage_probe", {}).get("problems", []) for p in phases]
    failed = sum(
        p["failed"] + p["setup"]["failed"] + p["warmup"]["failed"]
        + len(p["replay"]["mismatches"]) + len(probe)
        for p, probe in zip(phases, probe_problems)
    )
    details["problems"] = [
        problem
        for p, probe in zip(phases, probe_problems)
        for problem in (
            p["failure_examples"] + p["setup"]["failure_examples"]
            + p["warmup"]["failure_examples"] + p["replay"]["mismatches"][:5]
            + probe[:5]
            + ([] if p["latency_p95_supported"] else [
                f"too short: {p['latency_p95_samples_beyond']} samples beyond p95, {MIN_BEYOND} needed"
            ])
        )
    ]
    correct = failed == 0 and all(p["latency_p95_supported"] for p in phases)
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        dump = dict(details, result=result)
        if trace:
            dump["spans"] = [
                [s.span_id, s.parent_id, s.op_id, s.name, s.layer, s.start, s.end]
                for s in recorder.spans
            ]
        path.write_text(json.dumps(dump, default=str))
        details["written"] = str(path)
    return {"result": result, "details": details}
