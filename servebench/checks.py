"""Correctness checks on every response, and in-process replays.

:func:`check_op` checks one op's statuses, payload shapes and echoed
content as soon as the timed phase is over. The replays then recompute a
seeded sample of answers in-process, with the server's own model bank,
and compare them bit for bit:

* ``browse`` — ``localize`` answers (cached ones, and rows that were
  swept inside a coalesced batch) against ``CamAL.localize_watts`` on
  the same window; every detect/localize answer for one window must
  also agree with every other.
* ``live`` — ``live_localize`` answers against a cold
  ``localize_watts`` over the returned ``[start, start + length)``
  window, read back through ``GET /series``.
* ``ingest`` — a ``GET /series`` readback of the house against the
  values sent (``null`` ↔ NaN).
"""

from __future__ import annotations

import json
from urllib.parse import urlsplit

import numpy as np

__all__ = ["check_op", "check_response", "expected_answer", "replay"]

_DETECT = {"house_id", "appliance", "start", "length", "probability", "detected", "verdict", "cached"}
_KEYS = {
    "series": {"house_id", "start", "length", "watts"},
    "detect": _DETECT,
    "localize": _DETECT | {"on_fraction", "intervals"},
    "ingest": {"house_id", "appended", "n_steps"},
    "append": {"house_id", "received", "factor", "committed", "pending", "n_steps", "epoch"},
    "live_localize": _DETECT | {"epoch", "reuse", "on_fraction", "intervals"},
    "houses": {"house_id", "step_s", "n_steps", "devices"},
    "house": {"house_id", "step_s", "n_steps", "devices"},
    "devices": {"house_id", "appliance"},
}
_OK = {"houses": (201,), "devices": (200, 201)}


def route(request) -> str:
    parts = urlsplit(request.path).path.strip("/").split("/")
    if request.method == "DELETE":
        return "delete"
    if len(parts) == 2:
        return "house" if request.method == "GET" else "houses"
    return parts[-1]


def _as_array(watts) -> np.ndarray:
    return np.array([np.nan if w is None else w for w in watts], dtype=np.float64)


def _same_series(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def check_response(plan, op, request, status: int, body: bytes) -> "str | None":
    """One response against its request; None when it is right."""
    name = route(request)
    if status not in _OK.get(name, (200,)):
        return f"{name}: HTTP {status}"
    if name == "delete":
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return f"{name}: body is not JSON"
    missing = _KEYS[name] - set(payload)
    if missing:
        return f"{name}: missing {sorted(missing)}"
    if name == "series" and plan.workload == "browse":
        start, length = payload["start"], payload["length"]
        sent = plan.series[(request.tenant, payload["house_id"])][start : start + length]
        if not _same_series(_as_array(payload["watts"]), sent):
            return "series: watts differ from the values ingested"
    if name in ("detect", "localize"):
        asked = json.loads(request.body)
        if any(payload[k] != asked[k] for k in ("appliance", "start", "length")):
            return f"{name}: answered another window"
        if payload["verdict"] not in ("ok", "repaired", "degraded"):
            return f"{name}: verdict {payload['verdict']!r}"
    if name == "ingest" and op is not None and (
        payload["appended"] != op.meta["samples"] or payload["n_steps"] != op.meta["n_steps"]
    ):
        return f"ingest: n_steps {payload['n_steps']}, expected {op.meta['n_steps']}"
    if name == "append" and (payload["factor"] != 6 or payload["committed"] != 1):
        return "append: six 10 s readings must commit one 1-min sample"
    return None


def check_op(plan, record) -> list:
    """Problems with one op's responses (empty when all are right)."""
    requests = record.op.prelude + record.op.requests
    problems = [
        problem
        for request, status, body in zip(requests, record.statuses, record.bodies)
        if (problem := check_response(plan, record.op, request, status, body))
    ]
    if record.error:
        problems.append(record.error)
    return problems


def _runs(mask: np.ndarray) -> list:
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return [[int(a), int(b)] for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]


def expected_answer(result, start: int) -> dict:
    """The fields a served answer must carry for ``result``'s row 0."""
    degraded = bool(result.degraded[0]) if result.degraded.size else False
    repaired = bool(result.repaired[0]) if result.repaired.size else False
    probability = float(result.probabilities[0])
    return {
        "probability": None if probability != probability else probability,
        "detected": bool(result.detected[0]),
        "verdict": "degraded" if degraded else "repaired" if repaired else "ok",
        "intervals": [] if degraded else [
            [a + start, b + start] for a, b in _runs(result.status[0] > 0.5)
        ],
    }


def _answer(payload: dict, keys=("probability", "detected", "verdict", "intervals")) -> dict:
    return {k: payload[k] for k in keys}


def _answers(records, name: str):
    """``(record, request, payload)`` for every 200 answer on route ``name``."""
    for record in records:
        requests = record.op.prelude + record.op.requests
        for request, status, body in zip(requests, record.statuses, record.bodies):
            if route(request) == name and status == 200:
                yield record, request, json.loads(body)


def _sweep(bank, appliance: str, window: np.ndarray):
    model, lock = bank.get(appliance)
    with lock:
        return model.localize_watts(window[None, :], appliance=appliance)


def _replay_browse(plan, records, bank, fetch, rng, k):
    mismatches = []
    seen: dict = {}
    for name in ("detect", "localize"):
        for _, request, payload in _answers(records, name):
            key = (request.tenant, payload["house_id"], payload["appliance"], payload["start"], payload["length"])
            fields = ("probability", "detected", "verdict") + (("intervals",) if name == "localize" else ())
            answer = _answer(payload, fields)
            first = seen.setdefault(key, answer)
            if any(first.get(f, answer[f]) != answer[f] for f in fields):
                mismatches.append(f"{name} {key}: answers disagree across requests")
            first.update(answer)
    keys = sorted(k_ for k_ in seen if "intervals" in seen[k_])
    picked = [keys[i] for i in rng.choice(len(keys), size=min(k, len(keys)), replace=False)]
    for key in picked:
        tenant, hid, appliance, start, length = key
        window = plan.series[(tenant, hid)][start : start + length]
        expected = expected_answer(_sweep(bank, appliance, window), start)
        if seen[key] != expected:
            mismatches.append(f"localize {tenant} {hid} {appliance} [{start}, {start + length}): differs from localize_watts")
    return len(picked), mismatches


def _replay_live(plan, records, bank, fetch, rng, k):
    answers = list(_answers(records, "live_localize"))
    picked = [answers[i] for i in rng.choice(len(answers), size=min(k, len(answers)), replace=False)]
    mismatches = []
    for _, request, payload in picked:
        start, length = payload["start"], payload["length"]
        hid = payload["house_id"]
        series = fetch("GET", f"/houses/{hid}/series?start={start}&length={length}", request.tenant)
        window = _as_array(series["watts"])
        expected = expected_answer(_sweep(bank, payload["appliance"], window), start)
        if _answer(payload) != expected:
            mismatches.append(f"live_localize {hid} [{start}, {start + length}): differs from a cold localize_watts")
    return len(picked), mismatches


def _replay_ingest(plan, records, bank, fetch, rng, k):
    held: dict = {}
    for record in records:  # in completion order per client
        tenant = record.op.requests[0].tenant
        held[tenant] = record.op.meta["n_steps"]
    mismatches = []
    checked = 0
    span = 4096
    for (tenant, hid), sent in sorted(plan.series.items()):
        n = held.get(tenant, 0)
        for start in sorted(rng.integers(0, max(n - span, 0) + 1, size=max(1, k // 2))):
            length = min(span, n - int(start))
            if length < 2:
                continue
            checked += 1
            series = fetch("GET", f"/houses/{hid}/series?start={start}&length={length}", tenant)
            if not _same_series(_as_array(series["watts"]), sent[start : start + length]):
                mismatches.append(f"series {tenant} [{start}, {start + length}): readback differs from the values sent")
    return checked, mismatches


def replay(plan, records, bank, fetch, seed: int, k: int = 16) -> tuple:
    """``(answers checked, mismatch descriptions)`` for a seeded sample.

    ``fetch(method, path, tenant)`` returns a decoded 200 payload.
    """
    rng = np.random.default_rng([seed, 99])
    replayer = {"browse": _replay_browse, "live": _replay_live, "ingest": _replay_ingest}[plan.workload]
    return replayer(plan, records, bank, fetch, rng, k)
