"""DeviceScope command-line interface.

Three subcommands mirroring the demo scenarios (§IV):

* ``devicescope browse`` — Scenario 1/2: build a session, page through
  windows in the terminal with sparklines and predicted statuses.
* ``devicescope demo`` — train CamAL and write a standalone HTML report
  of the Playground frame.
* ``devicescope benchmark`` — Scenario 3: run the method comparison and
  print the detection/localization tables.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..datasets import APPLIANCE_NAMES, PROFILES, make_windows
from ..eval import BenchmarkRunner, format_benchmark
from ..models import TrainConfig, list_baselines
from .render import (
    ascii_series,
    benchmark_sections,
    profile_sections,
    render_window_view,
    write_report,
)
from .session import DeviceScope

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The devicescope argument parser (also used by the tests)."""
    parser = argparse.ArgumentParser(
        prog="devicescope",
        description=(
            "DeviceScope: detect and localize appliance patterns in "
            "electricity consumption series (ICDE 2025 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--profile", default="ukdale", choices=sorted(PROFILES)
        )
        p.add_argument(
            "--appliance", default="kettle", choices=sorted(APPLIANCE_NAMES)
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--fast",
            action="store_true",
            help="tiny dataset and models (seconds instead of minutes)",
        )

    browse = sub.add_parser("browse", help="page through windows in the terminal")
    common(browse)
    browse.add_argument("--window", default="6h", choices=["6h", "12h", "1day"])
    browse.add_argument("--pages", type=int, default=3)

    demo = sub.add_parser("demo", help="train CamAL and write an HTML report")
    common(demo)
    demo.add_argument("--window", default="6h", choices=["6h", "12h", "1day"])
    demo.add_argument("--out", default="devicescope_report.html")
    demo.add_argument("--pages", type=int, default=3)

    bench = sub.add_parser("benchmark", help="compare CamAL against baselines")
    common(bench)
    bench.add_argument(
        "--methods",
        nargs="*",
        default=["mil", "seq2seq_cnn"],
        choices=list_baselines(include_extras=True),
    )
    bench.add_argument(
        "--save", default=None, metavar="DIR",
        help="persist results as JSON for 'devicescope report'",
    )

    report = sub.add_parser(
        "report", help="render saved benchmark results as an HTML report"
    )
    report.add_argument("results_dir", help="directory written by --save")
    report.add_argument("--out", default="benchmark_report.html")

    upload = sub.add_parser(
        "upload", help="browse an uploaded CSV consumption series"
    )
    upload.add_argument("csv", help="CSV with an 'aggregate' column")
    upload.add_argument("--pages", type=int, default=3)

    energy = sub.add_parser(
        "energy", help="per-appliance energy report for a held-out house"
    )
    common(energy)

    faultcheck = sub.add_parser(
        "faultcheck",
        help="inject deterministic faults and verify graceful degradation",
    )
    common(faultcheck)
    faultcheck.add_argument(
        "--nan-fraction", type=float, default=0.02,
        help="fraction of the first store read to overwrite with NaN",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="drive a telemetry workload and export/watch the results",
    )
    common(obs_cmd)
    obs_cmd.add_argument(
        "--window", default="6h", choices=["6h", "12h", "1day"]
    )
    obs_cmd.add_argument(
        "--requests", type=int, default=6,
        help="Playground view requests to drive through the session",
    )
    obs_cmd.add_argument(
        "--openmetrics", action="store_true",
        help="print OpenMetrics text exposition on stdout (scrape-ready)",
    )
    obs_cmd.add_argument(
        "--trace-out", default=None, metavar="JSON",
        help="write the Chrome trace-event JSON (open in Perfetto)",
    )
    obs_cmd.add_argument(
        "--jsonl-out", default=None, metavar="JSONL",
        help="write structured log events as JSON Lines",
    )
    obs_cmd.add_argument(
        "--watch", action="store_true",
        help="render a live text dashboard while driving requests",
    )
    obs_cmd.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between --watch refreshes",
    )
    obs_cmd.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop --watch after N refreshes (default: one per request)",
    )
    obs_cmd.add_argument(
        "--store", default=".devicescope_telemetry", metavar="DIR",
        help="telemetry store directory (JSONL segments + rollups)",
    )
    obs_cmd.add_argument(
        "--no-store", action="store_true",
        help="do not persist request telemetry to --store",
    )
    obs_cmd.add_argument(
        "--history", action="store_true",
        help="print attainment/latency trends from the store and exit",
    )
    obs_cmd.add_argument(
        "--compact", action="store_true",
        help="fold sealed segments into per-period rollups",
    )
    obs_cmd.add_argument(
        "--flight", action="store_true",
        help="print the flight recorder's retained traces (tail-sampled: "
        "errors/degraded/sheds, the slowest decile, and a random baseline)",
    )

    quality_cmd = sub.add_parser(
        "quality",
        help="model-quality report: drift vs a clean reference + canaries",
    )
    common(quality_cmd)
    quality_cmd.add_argument(
        "--scenario", default="clean", choices=["clean", "shifted"],
        help=(
            "live-traffic scenario: 'clean' draws from the reference "
            "distribution, 'shifted' degrades sampling and appliance mix"
        ),
    )
    quality_cmd.add_argument(
        "--perturb-checkpoint", action="store_true",
        help="corrupt the model weights after canary capture (the "
        "silent-model-change failure the canaries exist to catch)",
    )
    quality_cmd.add_argument(
        "--evaluations", type=int, default=3,
        help="monitoring ticks to run (alerts need consecutive evidence)",
    )
    quality_cmd.add_argument(
        "--store", default=".devicescope_telemetry", metavar="DIR",
        help="telemetry store directory shared with 'devicescope obs'",
    )
    quality_cmd.add_argument(
        "--no-store", action="store_true",
        help="do not persist request telemetry to --store",
    )
    quality_cmd.add_argument(
        "--json", action="store_true",
        help="emit the full quality report as JSON on stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP service over the engine",
    )
    common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="TCP port (0 picks an ephemeral one and prints it)",
    )
    serve.add_argument(
        "--appliances", nargs="*", default=None,
        choices=sorted(APPLIANCE_NAMES), metavar="APPLIANCE",
        help="appliance models to serve (default: --appliance)",
    )
    serve.add_argument(
        "--objective-ms", type=float, default=250.0,
        help="per-request latency objective for the SLO trackers",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=None,
        help="micro-batcher coalescing window in ms — concurrent "
        "detect/localize requests arriving within it share one "
        "ensemble sweep; a request on an appliance idle for a whole "
        "window sweeps at once (0 disables batching; default 4.0)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=None,
        help="max windows coalesced into one sweep (1 disables "
        "batching; default 16)",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="boot on an ephemeral port, drive the CRUD→ingest→detect→"
        "metrics→health scenario plus an induced-overload 503 check "
        "over real HTTP, then exit 0/1 (the CI serve-smoke gate)",
    )

    stream = sub.add_parser(
        "stream",
        help="simulate live meter appends through the incremental path",
    )
    common(stream)
    stream.add_argument(
        "--window", type=int, default=1440,
        help="sliding analysis window in samples (default: one day)",
    )
    stream.add_argument(
        "--chunk", type=int, default=15,
        help="samples per append (a meter pushing every N minutes)",
    )
    stream.add_argument(
        "--appends", type=int, default=20,
        help="number of appends to stream after the warm-up window",
    )
    stream.add_argument(
        "--factor", type=int, default=1,
        help="raw readings per stored sample (block-mean resampled)",
    )
    stream.add_argument(
        "--verify", action="store_true",
        help="cold-recompute each window and assert bit-identical results",
    )
    stream.add_argument(
        "--json", action="store_true",
        help="emit the per-append log and summary as JSON on stdout",
    )

    profile = sub.add_parser(
        "profile",
        help="trace a representative CamAL workload (spans, layers, metrics)",
    )
    common(profile)
    profile.add_argument("--window", default="1day", choices=["6h", "12h", "1day"])
    profile.add_argument(
        "--repeats", type=int, default=2,
        help="localize the window this many times (averages layer costs)",
    )
    profile.add_argument(
        "--top", type=int, default=10, help="slowest layers to show"
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the full profile payload as JSON on stdout",
    )
    profile.add_argument(
        "--out", default=None, metavar="HTML",
        help="also write a standalone HTML observability panel",
    )
    return parser


def _session(args, window: str) -> DeviceScope:
    if args.fast:
        return DeviceScope.bootstrap(
            profile=args.profile,
            appliances=(args.appliance,),
            window=128,
            seed=args.seed,
            n_houses=3,
            days_per_house=(3, 4),
            kernel_sizes=(5, 9),
            n_filters=(8, 16, 16),
            train_config=TrainConfig(epochs=5, seed=args.seed),
        )
    return DeviceScope.bootstrap(
        profile=args.profile,
        appliances=(args.appliance,),
        window=window,
        seed=args.seed,
    )


def cmd_browse(args) -> int:
    """Scenario 1/2: page through windows with terminal sparklines."""
    session = _session(args, args.window)
    playground = session.playground
    if not args.fast:
        playground.select_window(args.window)
    playground.state.selected_appliances = [args.appliance]
    print(
        f"Dataset {session.dataset_name}: browsing house "
        f"{playground.state.house_id} ({playground.n_windows} windows)"
    )
    for _ in range(max(args.pages, 1)):
        view = playground.view()
        print(f"\n— window {view.position + 1}/{view.n_windows} —")
        print("aggregate  " + ascii_series(view.watts))
        if view.degraded:
            print("           (store read failed — window degraded)")
        for name, pred in view.predictions.items():
            marker = "DETECTED" if pred.detected else "not detected"
            prob = (
                f"p={pred.probability:.2f}"
                if np.isfinite(pred.probability)
                else "missing data"
            )
            if pred.verdict != "ok":
                prob += f", {pred.verdict}"
            print(f"{name:<11}" + ascii_series(pred.status) + f"  {marker} ({prob})")
        if not view.has_next:
            break
        playground.next()
    return 0


def cmd_demo(args) -> int:
    """Train CamAL and write a standalone HTML Playground report."""
    session = _session(args, args.window)
    playground = session.playground
    if not args.fast:
        playground.select_window(args.window)
    playground.state.selected_appliances = [args.appliance]
    sections = []
    for _ in range(max(args.pages, 1)):
        sections.append(render_window_view(playground.view()))
        if not playground.view().has_next:
            break
        playground.next()
    path = write_report(
        args.out, f"DeviceScope — {session.dataset_name} / {args.appliance}",
        sections,
    )
    print(f"report written to {path}")
    return 0


def cmd_benchmark(args) -> int:
    """Scenario 3: train and compare CamAL with the baselines."""
    from ..datasets import build_dataset

    if args.fast:
        dataset = build_dataset(
            args.profile, seed=args.seed, n_houses=3, days_per_house=(3, 4)
        )
        window, stride = 128, 64
        config = TrainConfig(epochs=5, seed=args.seed)
        kernels, filters = (5, 9), (8, 16, 16)
    else:
        dataset = build_dataset(args.profile, seed=args.seed)
        window, stride = "6h", None
        config = TrainConfig(epochs=10, seed=args.seed)
        kernels, filters = (5, 7, 9, 15), (8, 16, 16)
    train_ds, test_ds = dataset.split_houses(
        0.34, rng=np.random.default_rng(args.seed)
    )
    train_windows = make_windows(train_ds, args.appliance, window, stride=stride)
    test_windows = make_windows(
        test_ds, args.appliance, window, scaler=train_windows.scaler
    )
    runner = BenchmarkRunner(
        train_windows,
        test_windows,
        train_config=config,
        camal_kernel_sizes=kernels,
        camal_filters=filters,
        seed=args.seed,
        dataset_name=args.profile,
    )
    result = runner.run_all(args.methods)
    print(format_benchmark(result, "detection"))
    print()
    print(format_benchmark(result, "localization"))
    if args.save:
        from .benchmark_frame import BenchmarkBrowser

        browser = BenchmarkBrowser()
        browser.add(result)
        browser.save_dir(args.save)
        print(f"results saved to {args.save}")
    return 0


def cmd_report(args) -> int:
    """Render saved benchmark JSON as a standalone HTML report."""
    from .benchmark_frame import BenchmarkBrowser

    browser = BenchmarkBrowser.load_dir(args.results_dir)
    sections = []
    for dataset in browser.datasets:
        for appliance in browser.appliances(dataset):
            sections.extend(benchmark_sections(browser, dataset, appliance))
    if not sections:
        print(f"no results found in {args.results_dir}")
        return 1
    path = write_report(args.out, "DeviceScope — benchmark results", sections)
    print(f"report written to {path}")
    return 0


def cmd_upload(args) -> int:
    """Load a user CSV (the §III upload path) and browse it."""
    from ..datasets import house_from_csv

    house = house_from_csv(args.csv)
    print(
        f"loaded {house.house_id}: {house.n_steps} samples "
        f"(~{house.duration_days:.1f} days at {house.step_s:.0f}s), "
        f"channels: aggregate"
        + ("".join(f", {name}" for name in house.submeters))
    )
    length = min(360, max(house.n_steps // max(args.pages, 1), 2))
    for page in range(max(args.pages, 1)):
        start = page * length
        chunk = house.aggregate[start : start + length]
        if len(chunk) < 2:
            break
        print(f"window {page + 1}: " + ascii_series(chunk))
    return 0


def cmd_energy(args) -> int:
    """Per-appliance energy + usage report for a held-out house."""
    from ..core import CamAL, SlidingWindowLocalizer
    from ..datasets import build_dataset
    from ..eval import estimate_energy, format_table, usage_profile
    from ..models import TrainConfig

    if args.fast:
        dataset = build_dataset(
            args.profile, seed=args.seed, n_houses=4, days_per_house=(4, 5)
        )
        config = TrainConfig(epochs=5, seed=args.seed)
    else:
        dataset = build_dataset(args.profile, seed=args.seed)
        config = TrainConfig(epochs=10, seed=args.seed)
    train_houses, test_houses = dataset.split_houses(
        0.3, rng=np.random.default_rng(args.seed), stratify_by=args.appliance
    )
    owner = next(
        (h for h in test_houses.houses if h.possession.get(args.appliance)),
        test_houses.houses[0],
    )
    train = make_windows(train_houses, args.appliance, 128, stride=64)
    model = CamAL.train(
        train, kernel_sizes=(5, 9), n_filters=(8, 16, 16), train_config=config
    )
    located = SlidingWindowLocalizer(model, 128).localize_house(
        owner, args.appliance
    )
    estimate = estimate_energy(
        args.appliance,
        located.status,
        owner.aggregate,
        step_s=dataset.step_s,
        submeter_w=owner.submeters.get(args.appliance),
    )
    print(format_table([
        {
            "house": owner.house_id,
            "appliance": args.appliance,
            "estimated_kwh": estimate.estimated_kwh,
            "true_kwh": estimate.true_kwh,
        }
    ]))
    profile = usage_profile(
        args.appliance, located.status, power_w=owner.aggregate,
        step_s=dataset.step_s,
    )
    print(profile.describe())
    return 0


def cmd_faultcheck(args) -> int:
    """Robustness smoke: the acceptance scenario of DESIGN.md §8.

    Injects one transient store read error plus a NaN burst into a
    seeded synthetic workload (untrained ensemble — no training, so it
    finishes in seconds) and verifies the graceful-degradation
    contract: the pipeline and Playground navigation complete without
    raising, the results carry repaired/degraded flags, the retry layer
    recovered, and ``robust.*`` counters recorded all of it.
    """
    from .. import obs
    from ..core import CamAL, SlidingWindowLocalizer
    from ..datasets import Standardizer, build_dataset
    from ..models import ResNetEnsemble
    from ..robust import FaultPlan, inject, metrics_snapshot
    from .playground import Playground

    dataset = build_dataset(
        args.profile, seed=args.seed, n_houses=2, days_per_house=(2, 3)
    )
    house = dataset.houses[0]
    ensemble = ResNetEnsemble((5, 9), n_filters=(4, 8, 8), seed=args.seed)
    ensemble.eval()
    scaler = Standardizer.fit(
        np.nan_to_num(house.aggregate, nan=0.0)[None, :]
    )
    model = CamAL(ensemble, scaler)
    plan = (
        FaultPlan(seed=args.seed, sleep=lambda s: None)
        # First store read errors once; the retry decorator recovers.
        .fail("store.read", at=0)
        # The recovered read comes back with a NaN burst; the repair
        # layer interpolates the short gaps.
        .nan_burst("store.read", at=0, fraction=args.nan_fraction)
    )
    checks: list[tuple[str, bool]] = []
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        with inject(plan):
            localizer = SlidingWindowLocalizer(model, 128, repair=True)
            located = localizer.localize_house(house, args.appliance)
            checks.append(("pipeline completed under faults", True))
            checks.append(
                ("series flagged repaired/degraded",
                 located.repaired or located.degraded)
            )
            playground = Playground(dataset, {args.appliance: model})
            playground.state.selected_appliances = [args.appliance]
            playground.select_window("6h")
            views = [playground.view(), playground.next(), playground.previous()]
            checks.append(("playground navigation completed", True))
            checks.append(
                ("predictions rendered on every page",
                 all(args.appliance in v.predictions for v in views))
            )
            checks.append(
                ("revisit served from cache", playground.cache.hits >= 1)
            )
        kinds = {record["kind"] for record in plan.triggered}
        checks.append(("fault plan fired error + NaN burst",
                       {"error", "nan"} <= kinds))
        snapshot = metrics_snapshot()
        checks.append(
            ("robust.* counters recorded retry + repair",
             "robust.retry_recoveries_total" in snapshot
             and any(name.startswith(("robust.repairs_total",
                                      "robust.validation_verdicts_total"))
                     for name in snapshot))
        )
    except Exception as err:  # the contract is "never crash"
        checks.append((f"no unhandled exception ({type(err).__name__}: {err})",
                       False))
    finally:
        if not was_enabled:
            obs.disable()
    failed = [label for label, passed in checks if not passed]
    for label, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {label}")
    print(plan.summary()["by_kind"])
    # Degraded windows are the *expected* outcome here — the status
    # line shows how the injected faults surface in session health.
    print(f"health status: {_derived_status().upper()}")
    print("faultcheck: " + ("PASS" if not failed else "FAIL"))
    return 0 if not failed else 1


def _telemetry_playground(args):
    """A training-free Playground (untrained ensemble over a seeded
    synthetic dataset) — the shared workload behind ``obs``/``faultcheck``
    style smokes: it exercises the exact serving hot path in seconds."""
    from ..core import CamAL
    from ..datasets import Standardizer, build_dataset
    from ..models import ResNetEnsemble
    from .playground import Playground

    n_houses = 2 if args.fast else 3
    dataset = build_dataset(
        args.profile, seed=args.seed, n_houses=n_houses, days_per_house=(2, 3)
    )
    kernels = (5, 9) if args.fast else (5, 7, 9, 15)
    ensemble = ResNetEnsemble(kernels, n_filters=(4, 8, 8), seed=args.seed)
    ensemble.eval()
    scaler = Standardizer.fit(
        np.nan_to_num(dataset.houses[0].aggregate, nan=0.0)[None, :]
    )
    model = CamAL(ensemble, scaler)
    playground = Playground(dataset, {args.appliance: model})
    playground.state.selected_appliances = [args.appliance]
    playground.select_window(args.window)
    return playground


#: ``--watch`` sleep hook — module-level so tests can stub it out
#: without patching the stdlib.
_WATCH_SLEEP = None  # None -> time.sleep


def _derived_status() -> str:
    """Process-wide health status — global obs/robust/quality state
    plus any serve-layer per-tenant SLO trackers, so the CLI and a
    running server's ``/health`` can never disagree."""
    from .session import process_status

    return process_status()


def _open_store(args):
    """The telemetry store selected by ``--store``/``--no-store``."""
    from ..obs.store import TelemetryStore

    if getattr(args, "no_store", False):
        return None
    return TelemetryStore(args.store)


def cmd_obs(args) -> int:
    """Telemetry export, live health, and history (DESIGN.md §9–10).

    Drives ``--requests`` Playground views (Prev/Next style — revisits
    hit the result cache) under ``obs.enable()`` with request scopes,
    persisting every request summary to the ``--store`` telemetry store,
    then exports: ``--openmetrics`` prints Prometheus/OpenMetrics text
    on stdout (now including ``devicescope_slo_*`` gauges),
    ``--trace-out`` writes Chrome trace-event JSON for Perfetto,
    ``--jsonl-out`` ships the structured log, and ``--watch`` renders a
    compact dashboard after every request instead (``--iterations N``
    caps the refreshes; Ctrl-C exits cleanly). With no flags, prints
    the dashboard once at the end. ``--history`` skips the workload and
    renders attainment/latency trends across past runs from the store;
    ``--compact`` folds sealed segments into per-period rollups first.
    """
    import json as json_mod
    import time as time_mod

    from .. import obs
    from ..obs.report import format_dashboard, format_history

    if args.history or args.compact:
        store = _open_store(args)
        if store is None:
            print("--history/--compact need a store (drop --no-store)")
            return 1
        try:
            if args.compact:
                compacted = store.compact()
                print(
                    f"compacted {compacted['segments_compacted']} segments "
                    f"into {len(compacted['periods'])} period rollups"
                )
            if args.history:
                print(format_history(store.history()))
        finally:
            store.close()
        return 0

    sleep = _WATCH_SLEEP if _WATCH_SLEEP is not None else time_mod.sleep
    playground = _telemetry_playground(args)
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    store = _open_store(args)
    if store is not None:
        obs.set_store(store)
    chatty = not args.openmetrics  # keep stdout scrape-clean otherwise

    def dashboard() -> str:
        return format_dashboard(
            obs.slo_tracker.snapshot(),
            obs.registry.snapshot(),
            playground.cache.stats() if playground.cache is not None else None,
            status=_derived_status(),
        )

    try:
        n_requests = max(args.requests, 1)
        refreshes = n_requests if args.iterations is None else args.iterations
        try:
            with obs.tracer.capture() as captured:
                for i in range(n_requests):
                    # Forward to the end, then bounce back: revisits exercise
                    # the result cache so hits/misses both show up attributed.
                    view = playground.view()
                    if view.has_next and i < n_requests // 2:
                        playground.state.advance(playground.n_windows, +1)
                    else:
                        playground.state.advance(playground.n_windows, -1)
                    if args.watch and i < refreshes:
                        print(dashboard())
                        print()
                        if args.interval > 0 and i < min(n_requests, refreshes) - 1:
                            sleep(args.interval)
        except KeyboardInterrupt:
            if chatty:
                print("\nwatch interrupted; flushing telemetry")
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json_mod.dump(obs.to_chrome_trace(captured), fh)
            if chatty:
                print(f"chrome trace written to {args.trace_out}")
        if args.jsonl_out:
            with open(args.jsonl_out, "w") as fh:
                fh.write(obs.to_jsonl(obs.log.events()))
            if chatty:
                print(f"event log written to {args.jsonl_out}")
        if args.flight and chatty:
            from ..obs.report import format_flight

            print(
                format_flight(
                    {
                        "stats": obs.flight_recorder.stats(),
                        "entries": obs.flight_recorder.entries(),
                    }
                )
            )
        if args.openmetrics:
            print(
                obs.to_openmetrics(
                    obs.registry.snapshot(), slo=obs.slo_tracker.snapshot()
                ),
                end="",
            )
        elif not args.watch:
            print(dashboard())
    finally:
        if store is not None:
            obs.set_store(None)
            store.close()
        if not was_enabled:
            obs.disable()
    return 0


def cmd_quality(args) -> int:
    """Model-quality monitoring report (DESIGN.md §10).

    Builds a training-free model over a seeded synthetic dataset,
    freezes a **reference profile** and a canary probe from clean
    known-answer windows, then drives live traffic per ``--scenario``:

    * ``clean`` — interleaved windows from the same distribution; drift
      stays ``ok`` (the control).
    * ``shifted`` — degraded sampling (NaN bursts), a collapsed power
      scale, and a changed appliance duty cycle; the PSI/KS detectors
      must flip the per-appliance alert to ``alert``.

    ``--perturb-checkpoint`` corrupts the weights *after* canary
    capture, modeling a silent checkpoint swap the input monitors
    cannot see. Exit code: 0 ok, 1 warn, 2 alert.
    """
    import json as json_mod

    from .. import obs, quality
    from ..core import CamAL
    from ..datasets import Standardizer, build_dataset
    from ..datasets.windows import extract_windows
    from ..models import ResNetEnsemble

    dataset = build_dataset(
        args.profile, seed=args.seed, n_houses=2, days_per_house=(3, 4)
    )
    aggregate = np.nan_to_num(dataset.houses[0].aggregate, nan=0.0)
    windows, _ = extract_windows(aggregate, 128, 64)
    ensemble = ResNetEnsemble(
        (5, 9) if args.fast else (5, 7, 9, 15),
        n_filters=(4, 8, 8),
        seed=args.seed,
    )
    ensemble.eval()
    model = CamAL(ensemble, Standardizer.fit(windows))

    # Interleave so reference and clean-live draw the same distribution.
    reference_windows = windows[::2]
    live_windows = windows[1::2].copy()
    if args.scenario == "shifted":
        rng = np.random.default_rng(args.seed + 1)
        live_windows *= 0.1  # collapsed power scale (bad calibration)
        live_windows[:, 40:80] += 30.0  # changed duty cycle
        for row in live_windows[::2]:  # degraded sampling: NaN bursts
            start = int(rng.integers(0, row.size - 16))
            row[start : start + 12] = np.nan

    monitor = quality.install(
        quality.QualityMonitor(escalate_after=2, cooldown_s=0.0)
    )
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    # This is an offline batch workload — hold it to a batch latency
    # objective, not the interactive-view default.
    previous_objective = obs.slo_tracker.objective_ms
    obs.slo_tracker.objective_ms = 10_000.0
    store = _open_store(args)
    if store is not None:
        obs.set_store(store)
    try:
        monitor.build_reference(args.appliance, model, reference_windows)
        probe = quality.CanaryProbe.capture(model, reference_windows[:8])
        monitor.add_canary(args.appliance, probe)
        if args.perturb_checkpoint:
            rng = np.random.default_rng(args.seed + 2)
            for parameter in ensemble.parameters():
                parameter.data += rng.normal(0.0, 0.5, parameter.data.shape)
        # Live traffic: attributed localizations in request scopes, in
        # batches so the alert machine sees consecutive evidence.
        batches = np.array_split(live_windows, max(args.evaluations, 1))
        report = monitor.report()
        for batch in batches:
            if not batch.size:
                continue
            with obs.request(
                kind="quality", scenario=args.scenario,
                appliance=args.appliance,
            ):
                model.localize_watts(batch, appliance=args.appliance)
            report = monitor.evaluate({args.appliance: model})
        overall = monitor.status()["overall"]
        if args.json:
            print(json_mod.dumps(report, indent=2, default=float))
        else:
            print(quality.format_report(report))
            print(f"\nhealth status: {_derived_status().upper()}")
    finally:
        obs.slo_tracker.objective_ms = previous_objective
        if store is not None:
            obs.set_store(None)
            store.close()
        if not was_enabled:
            obs.disable()
        quality.uninstall()
    return {"ok": 0, "warn": 1, "alert": 2}[overall]


def _http_json(
    url: str,
    method: str = "GET",
    body: dict | None = None,
    tenant: str | None = None,
    timeout: float = 30.0,
):
    """Tiny JSON client for the smoke scenario (stdlib only).

    Returns ``(status, payload, headers)`` and treats HTTP error codes
    as data, not exceptions — the smoke asserts on 503s.
    """
    import json as json_mod
    import urllib.error
    import urllib.request

    data = None
    req = urllib.request.Request(url, method=method)
    if body is not None:
        data = json_mod.dumps(body).encode("utf-8")
        req.add_header("Content-Type", "application/json")
    if tenant is not None:
        req.add_header("X-Tenant-Id", tenant)
    try:
        with urllib.request.urlopen(req, data=data, timeout=timeout) as resp:
            raw = resp.read()
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as err:
        raw = err.read()
        status, headers = err.code, dict(err.headers)
    try:
        payload = json_mod.loads(raw) if raw else {}
    except json_mod.JSONDecodeError:
        payload = {"raw": raw.decode("utf-8", "replace")}
    return status, payload, headers


def _serve_smoke(args, server) -> int:
    """The CI serve-smoke scenario over a real socket (DESIGN.md §11):
    CRUD → ingest → device attach → detect/localize (cache revisit) →
    ``/metrics`` parseability → ``/health`` consistency with the CLI's
    derived status → induced SLO burn answered with 503 + Retry-After
    instead of a crash → tenant isolation."""
    import urllib.request

    from .. import obs
    from .session import STATUS_LEVELS, process_status

    checks: list[tuple[str, bool]] = []
    ok = lambda label, passed: checks.append((label, bool(passed)))  # noqa: E731
    rng = np.random.default_rng(args.seed)
    watts = (rng.uniform(80, 240, size=256) + 40.0).tolist()
    watts[60:72] = [2600.0] * 12  # one kettle-shaped spike
    with server.running():
        base = server.url
        status, house, _ = _http_json(
            f"{base}/houses", "POST",
            {"house_id": "house-1", "step_s": 60.0}, tenant="smoke-a",
        )
        ok("POST /houses -> 201", status == 201)
        status, listing, _ = _http_json(f"{base}/houses", tenant="smoke-a")
        ok("GET /houses lists it", status == 200 and "house-1" in listing["houses"])
        status, ingest, _ = _http_json(
            f"{base}/houses/house-1/ingest", "POST", {"watts": watts},
            tenant="smoke-a",
        )
        ok("POST ingest -> 200 with n_steps",
           status == 200 and ingest.get("n_steps") == len(watts))
        status, _, _ = _http_json(
            f"{base}/houses/house-1/devices", "POST",
            {"appliance": args.appliance}, tenant="smoke-a",
        )
        ok("POST devices (attach) -> 201", status == 201)
        detect_body = {"appliance": args.appliance, "start": 0, "length": 128}
        status, detect, _ = _http_json(
            f"{base}/houses/house-1/detect", "POST", detect_body,
            tenant="smoke-a",
        )
        ok("POST detect -> 200 with probability",
           status == 200 and "probability" in detect
           and detect.get("cached") is False)
        status, localized, _ = _http_json(
            f"{base}/houses/house-1/localize", "POST", detect_body,
            tenant="smoke-a",
        )
        ok("POST localize -> 200 from cache with intervals",
           status == 200 and localized.get("cached") is True
           and isinstance(localized.get("intervals"), list))
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics_ok = resp.status == 200
            content_type = resp.headers.get("Content-Type", "")
            text = resp.read().decode("utf-8")
        ok("GET /metrics is OpenMetrics",
           metrics_ok
           and content_type.startswith("application/openmetrics-text")
           and text.endswith("# EOF\n")
           and "obs_requests_total" in text)
        status, health, _ = _http_json(f"{base}/health")
        ok("GET /health -> 200 with status",
           status == 200 and health.get("status") in STATUS_LEVELS)
        ok("/health status matches the CLI's derived status",
           health.get("status") == process_status())
        # Induced overload: error the SLO window far past the fast-burn
        # threshold; admission must answer 503 + Retry-After, while the
        # operator endpoints keep working.
        for _ in range(64):
            obs.slo_tracker.record(10.0, outcome="error")
        status, shed, headers = _http_json(
            f"{base}/houses/house-1/detect", "POST", detect_body,
            tenant="smoke-a",
        )
        ok("overload -> 503 (not a crash)", status == 503)
        ok("503 carries Retry-After", "Retry-After" in headers)
        status, health, _ = _http_json(f"{base}/health")
        ok("/health still live while shedding",
           status == 200 and health.get("shedding") is True)
        ok("/health agrees with CLI under overload",
           health.get("status") == process_status())
        status, other, _ = _http_json(f"{base}/houses", tenant="smoke-b")
        ok("tenants are isolated (smoke-b sees no houses)",
           status in (200, 503) and other.get("houses", {}) == {})
    failed = [label for label, passed in checks if not passed]
    for label, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {label}")
    print("serve-smoke: " + ("PASS" if not failed else "FAIL"))
    return 0 if not failed else 1


def cmd_serve(args) -> int:
    """Run the multi-tenant HTTP service (DESIGN.md §11).

    Builds a training-free model bank (seeded untrained ensembles —
    the serving-shape workload; swap in trained models via
    ``repro.serve.ModelBank.from_models``), enables observability, and
    serves until interrupted. Ctrl-C drains in-flight requests before
    releasing the port. ``--smoke`` runs the CI acceptance scenario on
    an ephemeral port instead and exits 0/1.
    """
    from .. import obs
    from ..serve import build_server

    appliances = (
        tuple(args.appliances) if args.appliances else (args.appliance,)
    )
    was_enabled = obs.enabled()
    obs.enable()  # a blind server is undebuggable; telemetry is the point
    previous_objective = obs.slo_tracker.objective_ms
    obs.slo_tracker.objective_ms = args.objective_ms
    server = build_server(
        host=args.host,
        port=0 if args.smoke else args.port,
        appliances=appliances,
        profile=args.profile,
        seed=args.seed,
        # Per-tenant trackers must judge latency against the same bar
        # as the global tracker set above, or /health and per-tenant
        # admission would use a different objective than the operator
        # configured.
        slo_objective_ms=args.objective_ms,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
    )
    try:
        if args.smoke:
            return _serve_smoke(args, server)
        batcher = server.service.batcher
        print(f"devicescope serve: listening on {server.url}")
        print(f"  appliances: {', '.join(appliances)}")
        if batcher.enabled:
            print(
                f"  micro-batching: window {batcher.batch_window_ms:g} ms, "
                f"max {batcher.batch_max} windows/sweep"
            )
        else:
            print("  micro-batching: disabled")
        print(f"  try: curl {server.url}/health")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down (draining in-flight requests)")
        finally:
            server.server_close()
        return 0
    finally:
        obs.slo_tracker.objective_ms = previous_objective
        if not was_enabled:
            obs.disable()


def cmd_stream(args) -> int:
    """Simulate a live meter: append chunks, localize incrementally.

    Builds a seeded synthetic feed and a training-free CamAL (the
    serving-shape workload), streams it through
    :class:`repro.stream.LiveStore` + :class:`repro.stream.SlidingCamAL`,
    and prints per-append latency, cache-reuse ratio, and the detected
    intervals of the live window. ``--verify`` additionally
    cold-recomputes every window and asserts the incremental result is
    bit-identical (the ``tests/stream`` contract, live).
    """
    import json
    import time

    from ..core import CamAL
    from ..datasets import Standardizer, build_dataset
    from ..models import ResNetEnsemble
    from ..stream import LiveStore, SlidingCamAL

    if args.chunk < 1 or args.appends < 1 or args.factor < 1:
        print("chunk, appends, and factor must all be >= 1", file=sys.stderr)
        return 2
    kernels = (5, 9) if args.fast else (5, 7, 9, 15)
    filters = (4, 8, 8) if args.fast else (8, 16, 16)
    raw_needed = (args.window + args.chunk * args.appends) * args.factor
    days = raw_needed // 1440 + 2
    dataset = build_dataset(
        args.profile, seed=args.seed, n_houses=1,
        days_per_house=(days, days + 1),
    )
    aggregate = np.nan_to_num(dataset.houses[0].aggregate, nan=0.0)
    feed = np.tile(aggregate, raw_needed // len(aggregate) + 1)[:raw_needed]
    ensemble = ResNetEnsemble(kernels, n_filters=filters, seed=args.seed)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer.fit(feed[None, :]))
    store = LiveStore(
        capacity=max(args.window * 4, args.window + 1), on_full="evict"
    )
    live = SlidingCamAL(
        model, store, window=args.window, appliance=args.appliance
    )
    # Warm up: one full window, then stream the remaining chunks.
    warm = args.window * args.factor
    store.append(feed[:warm], factor=args.factor)
    live.localize()
    log = []
    pos = warm
    for i in range(args.appends):
        chunk = feed[pos : pos + args.chunk * args.factor]
        pos += chunk.size
        store.append(chunk, factor=args.factor)
        t0 = time.perf_counter()
        loc = live.localize()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        entry = {
            "append": i + 1,
            "window": [loc.start, loc.end],
            "ms": elapsed_ms,
            "reuse_ratio": loc.reuse_ratio,
            "detected": bool(loc.result.detected[0]),
            "on_fraction": float((loc.result.status[0] > 0.5).mean()),
        }
        if args.verify:
            cold = model.localize_watts(
                store.read(loc.start, loc.end - loc.start)[None]
            )
            for field in ("probabilities", "cam", "attention", "status"):
                if not np.array_equal(
                    getattr(loc.result, field), getattr(cold, field)
                ):
                    print(
                        f"BIT-IDENTITY VIOLATION at append {i + 1}: {field}",
                        file=sys.stderr,
                    )
                    return 1
            entry["verified"] = True
        log.append(entry)
    summary = {
        "appliance": args.appliance,
        "window": args.window,
        "chunk": args.chunk,
        "factor": args.factor,
        "appends": args.appends,
        "members": len(ensemble),
        "mean_ms": float(np.mean([e["ms"] for e in log])),
        "lifetime_reuse_ratio": live.reuse_ratio,
        "verified": bool(args.verify),
    }
    if args.json:
        print(json.dumps({"appends": log, "summary": summary}, indent=2))
        return 0
    print(
        f"devicescope stream: {args.appends} appends × {args.chunk} samples "
        f"(factor {args.factor}) over a {args.window}-sample window"
    )
    for e in log:
        mark = " ✓" if e.get("verified") else ""
        print(
            f"  append {e['append']:>3}: window [{e['window'][0]}, "
            f"{e['window'][1]}) in {e['ms']:7.1f} ms, reuse "
            f"{e['reuse_ratio']:.0%}, on {e['on_fraction']:.0%}{mark}"
        )
    print(
        f"mean {summary['mean_ms']:.1f} ms/append, lifetime feature reuse "
        f"{summary['lifetime_reuse_ratio']:.0%}"
        + (", all windows bit-identical to cold recompute" if args.verify else "")
    )
    return 0


def cmd_profile(args) -> int:
    """Trace a representative CamAL inference workload.

    Builds a seeded synthetic house, takes one window of its aggregate
    (1 day by default), and runs CamAL localization under the tracer
    with per-layer profiling attached — no training, so it finishes in
    seconds while exercising the exact inference hot path. Prints the
    nested span tree (all six paper stages), the slowest layers, and
    the metric summaries; ``--json`` emits the same payload as JSON.
    """
    import json

    from .. import obs
    from ..core import CamAL, recommended_config
    from ..datasets import Standardizer, build_dataset
    from ..models import ResNetEnsemble
    from ..obs.report import ascii_report

    samples = {"6h": 360, "12h": 720, "1day": 1440}[args.window]
    kernels = (5, 9) if args.fast else (5, 7, 9, 15)
    days = samples // 1440 + 2
    dataset = build_dataset(
        args.profile, seed=args.seed, n_houses=1,
        days_per_house=(days, days + 1),
    )
    aggregate = np.nan_to_num(dataset.houses[0].aggregate, nan=0.0)
    watts = np.tile(aggregate, max(samples // len(aggregate) + 1, 1))[
        :samples
    ][None, :]
    ensemble = ResNetEnsemble(kernels, n_filters=(8, 16, 16), seed=args.seed)
    ensemble.eval()
    model = CamAL(
        ensemble, Standardizer.fit(watts), recommended_config(args.appliance)
    )
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        with ensemble.profile() as prof, obs.tracer.capture() as captured:
            for _ in range(max(args.repeats, 1)):
                model.localize_watts(watts)
        payload = {
            "workload": {
                "profile": args.profile,
                "appliance": args.appliance,
                "window": args.window,
                "samples": samples,
                "repeats": max(args.repeats, 1),
                "members": len(ensemble),
                "seed": args.seed,
            },
            "spans": captured.to_dicts(),
            "layers": prof.stats(),
            "metrics": obs.registry.snapshot(),
        }
    finally:
        if not was_enabled:
            obs.disable()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(ascii_report(payload, top=args.top))
    if args.out:
        path = write_report(
            args.out,
            f"DeviceScope — profile ({args.profile} / {args.window})",
            profile_sections(payload),
        )
        if not args.json:
            print(f"\nobservability panel written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "browse": cmd_browse,
        "demo": cmd_demo,
        "benchmark": cmd_benchmark,
        "report": cmd_report,
        "upload": cmd_upload,
        "energy": cmd_energy,
        "faultcheck": cmd_faultcheck,
        "profile": cmd_profile,
        "obs": cmd_obs,
        "quality": cmd_quality,
        "serve": cmd_serve,
        "stream": cmd_stream,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
