"""Seeded request plans for the three served workloads.

Every request the benchmark sends is generated here, before the server
boots, from the workload seed alone; the server sees only these bytes.
Mixes (window lengths, appliances, navigation) are drawn in balanced
shuffled blocks and injected gap counts are fixed, so every seed has the
same proportions and seeds differ only in order and placement. That
keeps run-to-run spread down without giving the server a fixed input.

* ``browse`` — a GUI session (one tenant) over its own 28-day simulator
  houses (three), outages filled: a page view is series → detect →
  localize on one 6 h / 12 h / 1 day window of one served appliance;
  navigation is Next with p = 0.75, else Prev. After the timed phase a
  probe tenant pages through one house with its outages left in.
* ``live`` — 16 meter houses (outages filled) over 2 tenants, open
  loop: a tick appends one minute of 10 s readings, then asks for the
  live 1-day window. Warm-up ticks come first, sent back to back.
* ``ingest`` — a client bulk-uploads 7-day bodies at 1 min, with the
  simulator's outages and injected dropouts as ``null``, until its
  house holds a year, then deletes it and starts over.

"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "APPLIANCES",
    "WINDOW_LENGTHS",
    "Request",
    "Op",
    "Plan",
    "Sizes",
    "make_plan",
    "plan_digest",
]

#: The served appliances (the model bank's two ensembles).
APPLIANCES = ("kettle", "washing_machine")
#: The paper's window choices, in 1-min samples.
WINDOW_LENGTHS = {"6h": 360, "12h": 720, "1day": 1440}
STEP_S = 60.0
DAY = 1440
#: Clients of each closed loop, one tenant each. With two on a 2-vCPU
#: machine each op's latency was mostly the other client's work holding
#: the interpreter, and it swung with load from outside the process.
CLOSED_LOOP_CLIENTS = 1


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    tenant: str
    body: "bytes | None" = None


@dataclass(frozen=True)
class Op:
    """One timed unit of work: its requests, sent in order."""

    requests: tuple
    #: Untimed requests sent first (house resets in ``ingest``).
    prelude: tuple = ()
    #: Open loop: seconds after the timed phase starts that it is due.
    due_s: "float | None" = None
    #: What the checks need to know about the op.
    meta: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    #: Requests that build the workload's server state, in order.
    setup: list
    #: Closed loop: one op list per client, cycled. Open loop: a single
    #: list in due order, shared by the sender threads.
    clients: list
    open_loop: bool
    #: (tenant, house_id) → the series the house holds after setup
    #: (browse, live) or the bodies' concatenation (ingest).
    series: dict
    properties: dict
    #: Untimed page views over a house with its outages, sent after the
    #: timed phase on a fresh tenant (``browse`` only; see ``_filled``).
    probe: tuple = ()
    #: Open loop: the ticks sent back to back before the timed schedule
    #: (closed-loop plans warm up on their own client lists).
    warmup: list = field(default_factory=list)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    browse_days: int = 28
    browse_houses: int = 3  # per session
    browse_views: int = 400  # page views per session, cycled
    live_houses: int = 16
    live_history_days: int = 2
    live_warmup_ops: int = 512  # more than the warm-up sends
    ingest_days: int = 364
    ingest_body_samples: int = 7 * DAY


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _watts(values: np.ndarray) -> list:
    return [None if v != v else v for v in values.tolist()]


def _balanced(rng: np.random.Generator, items, n: int) -> list:
    """``n`` draws in shuffled blocks that each hold every item once."""
    out: list = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _houses(seed: int, n: int, days: int) -> list:
    """Simulator aggregates at 1 min, rounded to 0.1 W.

    The simulator's meter outages (runs of 10 to 120 min) stay NaN.
    """
    from repro.datasets import build_dataset

    dataset = build_dataset(
        "ukdale", seed=seed, n_houses=n, days_per_house=(days, days)
    )
    return [
        np.round(np.maximum(np.asarray(house.aggregate, dtype=np.float64)[: days * DAY], 0.0), 1)
        for house in dataset.houses
    ]


def _filled(series: np.ndarray) -> np.ndarray:
    """``series`` with its outages interpolated over.

    The served stack answers a window that holds an outage longer than
    the robust layer repairs "degraded"; such answers spend the SLO
    error budget, and at the simulator's outage rate admission control
    then sheds the tenant for good (see ``outage_probe``). The timed
    phases of ``browse`` and ``live`` therefore run on filled houses,
    and the probe measures the shedding on the houses as simulated.
    """
    bad = np.isnan(series)
    if not bad.any():
        return series
    idx = np.arange(series.size)
    out = series.copy()
    out[bad] = np.round(np.interp(idx[bad], idx[~bad], series[~bad]), 1)
    return out


def _inject_gaps(
    rng: np.random.Generator, series: np.ndarray, count: int, lo: int, hi: int
) -> None:
    """``count`` NaN runs of ``lo..hi`` samples at seeded positions.

    One run per equal segment, never touching the segment's ends, so
    runs cannot merge into a longer one.
    """
    bounds = np.linspace(0, series.size, count + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(a + 1, b - length))
        series[start : start + length] = np.nan


def _properties(series: dict, **extra) -> dict:
    values = np.concatenate(list(series.values()))
    return {"nan_share": round(float(np.isnan(values).mean()), 5), **extra}


OUTAGE_TENANT = "browse-outage"


def _page_views(tenant: str, hid: str, watts: np.ndarray, length: int) -> tuple:
    """A fresh house for ``watts``, then one page view per window in turn."""
    create = (
        Request("POST", "/houses", tenant, _json({"house_id": hid, "step_s": STEP_S})),
        Request("POST", f"/houses/{hid}/ingest", tenant, _json({"watts": _watts(watts)})),
        Request("POST", f"/houses/{hid}/devices", tenant, _json({"appliance": APPLIANCES[0]})),
    )
    views = []
    for start in range(0, watts.size - length + 1, length):
        query = _json({"appliance": APPLIANCES[0], "start": start, "length": length})
        views.append(Op(
            requests=(
                Request("GET", f"/houses/{hid}/series?start={start}&length={length}", tenant),
                Request("POST", f"/houses/{hid}/detect", tenant, query),
                Request("POST", f"/houses/{hid}/localize", tenant, query),
            ),
            prelude=() if views else create,
        ))
    return tuple(views)


def browse_plan(seed: int, sizes: Sizes) -> Plan:
    rng = np.random.default_rng([seed, 1])
    n = sizes.browse_days * DAY
    setup, clients, series = [], [], {}
    raw = _houses(seed, CLOSED_LOOP_CLIENTS * sizes.browse_houses, sizes.browse_days)
    houses = iter(_filled(h) for h in raw)
    for s in range(CLOSED_LOOP_CLIENTS):
        tenant = f"browse-{s}"
        hids = [f"house-{h}" for h in range(sizes.browse_houses)]
        for hid, watts in zip(hids, houses):
            series[(tenant, hid)] = watts
            setup += [
                Request("POST", "/houses", tenant, _json({"house_id": hid, "step_s": STEP_S})),
                Request("POST", f"/houses/{hid}/ingest", tenant, _json({"watts": _watts(watts)})),
            ] + [
                Request("POST", f"/houses/{hid}/devices", tenant, _json({"appliance": a}))
                for a in APPLIANCES
            ]
        views = sizes.browse_views
        lengths = iter(_balanced(rng, tuple(WINDOW_LENGTHS.values()), views))
        appliances = iter(_balanced(rng, APPLIANCES, views))
        # Prev steps back through the windows shown (a revisit: both
        # requests hit the cache); Next opens the next window along the
        # houses, with the next length and appliance drawn. A window is
        # opened at most once per cycle of the plan, and a cycle opens
        # more windows (3/4 of the views) than a tenant's result cache
        # holds (256), so the cache has evicted a window before the
        # cycle comes back to it: hits come from Prev and from
        # localize-after-detect only, at the same rate all run long.
        opened: set = set()
        shown: list = []
        back = 0
        house, cursor = 0, int(rng.integers(0, n // DAY)) * DAY
        ops = []
        for step in _balanced(rng, (1, 1, 1, -1), views):
            if step > 0 or not shown:
                length, appliance = next(lengths), next(appliances)
                for _ in range(sizes.browse_houses * n):
                    start = -(-cursor // length) * length
                    if start + length > n:
                        house, cursor = (house + 1) % sizes.browse_houses, 0
                        continue
                    cursor = start + length
                    if (house, start, length, appliance) not in opened:
                        break
                else:
                    raise ValueError("browse plan opens more windows than the houses hold")
                opened.add((house, start, length, appliance))
                shown.append((hids[house], start, length, appliance))
                back = 0
            else:
                back = min(back + 1, len(shown) - 1)
            hid, start, length, appliance = shown[-1 - back]
            query = _json({"appliance": appliance, "start": start, "length": length})
            ops.append(Op(
                requests=(
                    Request("GET", f"/houses/{hid}/series?start={start}&length={length}", tenant),
                    Request("POST", f"/houses/{hid}/detect", tenant, query),
                    Request("POST", f"/houses/{hid}/localize", tenant, query),
                ),
                meta={"house": hid, "start": start, "length": length, "appliance": appliance},
            ))
        clients.append(ops)
    # The probe house: the first simulated house with an outage.
    outage = next((h for h in raw if np.isnan(h).any()), raw[0])
    probe = _page_views(OUTAGE_TENANT, "house-0", outage, DAY)
    names = {v: k for k, v in WINDOW_LENGTHS.items()}
    first = [op.meta for op in clients[0]]
    properties = _properties(
        series,
        sessions=CLOSED_LOOP_CLIENTS,
        houses_per_session=sizes.browse_houses,
        house_days=sizes.browse_days,
        views_per_cycle=views,
        window_mix={
            name: round(sum(m["length"] == length for m in first) / len(first), 3)
            for length, name in names.items()
        },
        appliance_mix={
            a: round(sum(m["appliance"] == a for m in first) / len(first), 3) for a in APPLIANCES
        },
        next_share=0.75,
        new_window_share=round(len(opened) / len(first), 3),
        simulated_nan_share=round(float(np.isnan(np.concatenate(raw)).mean()), 5),
        probe_views=len(probe),
        probe_nan_share=round(float(np.isnan(outage).mean()), 5),
    )
    series[(OUTAGE_TENANT, "house-0")] = outage
    return Plan("browse", setup, clients, False, series, properties, probe=probe)


def live_plan(seed: int, sizes: Sizes, rate: float, seconds: float) -> Plan:
    rng = np.random.default_rng([seed, 2])
    history = sizes.live_history_days * DAY
    houses = [_filled(h) for h in _houses(seed, sizes.live_houses, sizes.live_history_days + 1)]
    appliances = _balanced(rng, APPLIANCES, len(houses))
    setup, series, feeds, names = [], {}, [], []
    for h, (watts, appliance) in enumerate(zip(houses, appliances)):
        tenant, hid = f"live-{h % 2}", f"meter-{h}"
        names.append((tenant, hid, appliance))
        series[(tenant, hid)] = watts[:history]
        feeds.append(watts[history:])
        setup += [
            Request("POST", "/houses", tenant, _json({"house_id": hid, "step_s": STEP_S})),
            Request("POST", f"/houses/{hid}/ingest", tenant, _json({"watts": _watts(watts[:history])})),
            Request("POST", f"/houses/{hid}/devices", tenant, _json({"appliance": appliance})),
            # The meter has been live before the run: its sliding
            # session exists and holds features for the current window.
            Request("GET", f"/houses/{hid}/live_localize?appliance={appliance}&window={DAY}", tenant),
        ]
    n_warm = sizes.live_warmup_ops
    n_ops = max(1, math.ceil(rate * seconds))
    order = _balanced(rng, range(len(houses)), n_warm + n_ops)
    ticks = [0] * len(houses)
    ops = []
    for i, h in enumerate(order):
        tenant, hid, appliance = names[h]
        minute = feeds[h][ticks[h] % feeds[h].size]
        ticks[h] += 1
        # Six 10 s readings whose block mean lands near the minute value.
        readings = np.round(np.maximum(minute + rng.normal(0.0, 2.0, 6), 0.0), 1)
        ops.append(Op(
            requests=(
                Request("POST", f"/houses/{hid}/append", tenant,
                        _json({"watts": _watts(readings), "step_s": 10})),
                Request("GET", f"/houses/{hid}/live_localize?appliance={appliance}&window={DAY}", tenant),
            ),
            due_s=(i - n_warm) / rate if i >= n_warm else None,
            meta={"house": hid, "appliance": appliance},
        ))
    return Plan(
        "live", setup, [ops[n_warm:]], True, series,
        _properties(
            series,
            houses=len(houses),
            tenants=2,
            history_days=sizes.live_history_days,
            offered_rate_ops_per_s=rate,
            readings_per_append=6,
            append_step_s=10,
            window=DAY,
            appliance_mix={a: appliances.count(a) for a in APPLIANCES},
            warmup_ops_planned=n_warm,
        ),
        warmup=ops[:n_warm],
    )


def ingest_plan(seed: int, sizes: Sizes) -> Plan:
    rng = np.random.default_rng([seed, 3])
    body = sizes.ingest_body_samples
    setup, clients, series, body_bytes = [], [], {}, []
    for c, year in enumerate(_houses(seed, CLOSED_LOOP_CLIENTS, sizes.ingest_days)):
        tenant, hid = f"ingest-{c}", "bulk-0"
        n_bodies = year.size // body
        year = year[: n_bodies * body]
        create = Request("POST", "/houses", tenant, _json({"house_id": hid, "step_s": STEP_S}))
        setup.append(create)
        ops = []
        for k in range(n_bodies):
            chunk = year[k * body : (k + 1) * body]
            # Meter dropouts: four gaps of up to an hour per body.
            _inject_gaps(rng, chunk, 4, 1, 60)
            data = _json({"watts": _watts(chunk)})
            body_bytes.append(len(data))
            ops.append(Op(
                requests=(Request("POST", f"/houses/{hid}/ingest", tenant, data),),
                # A full year starts over in a fresh house.
                prelude=(Request("DELETE", f"/houses/{hid}", tenant), create) if k == 0 else (),
                meta={"samples": body, "n_steps": (k + 1) * body},
            ))
        series[(tenant, hid)] = year
        clients.append(ops)
    return Plan(
        "ingest", setup, clients, False, series,
        _properties(
            series,
            clients=CLOSED_LOOP_CLIENTS,
            body_samples=body,
            bodies_per_house=len(clients[0]),
            body_bytes_median=int(np.median(body_bytes)),
            body_bytes_max=max(body_bytes),
        ),
    )


def make_plan(
    workload: str, seed: int, seconds: float, live_rate: float, sizes: Sizes = Sizes()
) -> Plan:
    if workload == "browse":
        return browse_plan(seed, sizes)
    if workload == "live":
        return live_plan(seed, sizes, live_rate, seconds)
    if workload == "ingest":
        return ingest_plan(seed, sizes)
    raise ValueError(f"unknown workload {workload!r}")


def plan_digest(plan: Plan) -> str:
    """blake2b over every request's bytes and due time, in send order."""
    h = hashlib.blake2b(digest_size=16)
    for request in plan.setup:
        h.update(repr((request.method, request.path, request.tenant)).encode())
        h.update(request.body or b"")
    for ops in [plan.warmup] + plan.clients + [plan.probe]:
        for op in ops:
            h.update(repr(op.due_s).encode())
            for request in op.prelude + op.requests:
                h.update(repr((request.method, request.path, request.tenant)).encode())
                h.update(request.body or b"")
    return h.hexdigest()
