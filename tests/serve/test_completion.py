"""One completion record per response, over a real socket.

Every response outside the operator plane — served, refused by
admission, or made by the HTTP handler itself — is billed exactly once:
``obs.requests_total``, the cost ledger and the flight recorder each see
it once, and both SLO windows see it only if it was admitted. The
record is timed from handler entry (before the body is read) to the
last byte written.

The client here reads each response to EOF: the server closes an
HTTP/1.0 connection only after the handler returned, so the record is
complete by the time the test looks at the sinks.
"""

import json
import socket
import time

import pytest

from repro import obs
from repro.obs import context as obs_context
from repro.obs.context import parse_traceparent
from repro.serve import (
    AdmissionController,
    DeviceScopeService,
    TenantRegistry,
    build_server,
)
from repro.serve import service as service_module
from repro.serve.admission import AdmissionDecision
from repro.serve.http import MAX_BODY_BYTES, _Handler

TENANT = "bill-t"
TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
PARENT = "00f067aa0ba902b7"


def exchange(server, method, path, body=None, tenant=TENANT, headers=None,
             raw=None, length=None):
    """One HTTP/1.0 request read to EOF: ``(status, headers, body)``."""
    data = raw if raw is not None else (
        b"" if body is None else json.dumps(body).encode("utf-8")
    )
    lines = [f"{method} {path} HTTP/1.0", f"Content-Length: {length or len(data)}"]
    if tenant is not None:
        lines.append(f"X-Tenant-Id: {tenant}")
    lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode() + (
            b"" if length else data
        ))
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    parsed = dict(line.split(": ", 1) for line in header_lines)
    if "json" in parsed.get("Content-Type", ""):
        payload = json.loads(payload)
    else:
        payload = payload.decode("utf-8")
    return int(status_line.split()[1]), parsed, payload


def sinks(service, tenant=TENANT):
    """What the one record fans out to, as counts."""
    total = obs.registry.get("obs.requests_total")
    session = service.registry.get(tenant)
    costs = service.costs.snapshot()
    return {
        "requests_total": 0 if total is None else sum(
            s["value"] for s in total.snapshot()["series"]
        ),
        "ledger": sum(t["requests"] for t in costs["tenants"].values()),
        "flight_seen": obs.flight_recorder.stats()["seen"],
        "global_slo": obs.slo_tracker.snapshot()["count"],
        "tenant_slo": 0 if session is None else session.slo.snapshot()["count"],
    }


@pytest.fixture
def make_server(bank):
    obs.enable()
    started = []

    def make(**registry_kwargs):
        service = DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(**registry_kwargs),
            admission=AdmissionController(min_requests=10_000),
        )
        instance = build_server(bank=bank, service=service)
        instance.start()
        started.append(instance)
        return instance

    yield make
    for instance in started:
        instance.close()
        # Tenant SLO windows feed process health: leave none behind.
        registry = instance.service.registry
        for session in registry.tenants():
            registry.drop(session.tenant_id)


def _create(server, monkeypatch=None):
    status, _, _ = exchange(
        server, "POST", "/houses", {"house_id": "h1", "step_s": 60.0}
    )
    assert status == 201


def _shed(server, monkeypatch):
    monkeypatch.setattr(
        server.service.admission, "decide",
        lambda **kw: AdmissionDecision(False, "slo_burn", retry_after_s=1.0),
    )


def _fill_registry(server, monkeypatch):
    assert exchange(server, "GET", "/houses", tenant="first")[0] == 200


def _crash_thunk(server, monkeypatch):
    def boom(tenant):
        raise RuntimeError("induced")

    monkeypatch.setattr(server.service, "list_houses", boom)


def _crash_dispatch(server, monkeypatch):
    def boom(self):
        raise RuntimeError("induced")

    monkeypatch.setattr(_Handler, "_read_body", boom)


def _noop(server, monkeypatch):
    pass


#: (case, setup, request kwargs, status, billed route, billed tenant,
#:  admitted: enters both SLO windows)
CASES = [
    ("200", _noop, dict(method="GET", path="/houses"),
     200, "houses.list", TENANT, True),
    ("201", _noop,
     dict(method="POST", path="/houses", body={"house_id": "h1"}),
     201, "houses.create", TENANT, True),
    ("400 bad JSON", _noop,
     dict(method="POST", path="/houses", raw=b"{not json"),
     400, "houses.create", TENANT, False),
    ("400 bad tenant", _noop,
     dict(method="GET", path="/houses", tenant="bad tenant!!"),
     400, "houses.list", "invalid", False),
    ("404", _noop, dict(method="GET", path="/nope"),
     404, "unrouted", TENANT, False),
    ("404 bad tenant", _noop,
     dict(method="GET", path="/nope", tenant="bad tenant!!"),
     404, "unrouted", "invalid", False),
    ("405", _noop, dict(method="DELETE", path="/houses"),
     405, "unrouted", TENANT, False),
    ("409", _create,
     dict(method="POST", path="/houses", body={"house_id": "h1"}),
     409, "houses.create", TENANT, True),
    ("413 Content-Length", _noop,
     dict(method="POST", path="/houses", length=MAX_BODY_BYTES + 1),
     413, "houses.create", TENANT, False),
    ("413 samples", _create,
     dict(method="POST", path="/houses/h1/ingest",
          body={"watts": [1.0] * 9}),
     413, "ingest", TENANT, True),
    ("429", _create,
     dict(method="POST", path="/houses", body={"house_id": "h2"}),
     429, "houses.create", TENANT, True),
    ("503 shed", _shed, dict(method="GET", path="/houses"),
     503, "houses.list", TENANT, False),
    ("503 registry_full", _fill_registry, dict(method="GET", path="/houses"),
     503, "houses.list", TENANT, False),
    ("500 admitted", _crash_thunk, dict(method="GET", path="/houses"),
     500, "houses.list", TENANT, True),
    ("500 dispatch", _crash_dispatch,
     dict(method="POST", path="/houses", body={"house_id": "h1"}),
     500, "houses.create", TENANT, False),
]


@pytest.mark.parametrize(
    "setup, request_kwargs, status, route, tenant, admitted",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_every_status_path_is_one_record(
    make_server, monkeypatch, setup, request_kwargs, status, route, tenant,
    admitted,
):
    server = make_server(max_houses=1, max_tenants=1)
    service = server.service
    monkeypatch.setattr(service_module, "MAX_INGEST_SAMPLES", 8)
    setup(server, monkeypatch)
    before = sinks(service)
    costs_before = service.costs.snapshot()
    got, headers, _ = exchange(
        server,
        headers={"traceparent": f"00-{TRACE}-{PARENT}-01"},
        **{"tenant": TENANT, **request_kwargs},
    )
    after = sinks(service)
    assert got == status
    served = int(admitted)
    assert {k: after[k] - before[k] for k in after} == {
        "requests_total": 1,
        "ledger": 1,
        "flight_seen": 1,
        "global_slo": served,
        "tenant_slo": served,
    }
    costs = service.costs.snapshot()
    assert costs["routes"][route]["requests"] == (
        costs_before["routes"].get(route, {}).get("requests", 0) + 1
    )
    assert costs["tenants"][tenant]["requests"] == (
        costs_before["tenants"].get(tenant, {}).get("requests", 0) + 1
    )
    # One identity per request: the client's trace id, the server's span.
    assert parse_traceparent(headers["traceparent"])[0] == TRACE
    if status >= 500:
        # Always-keep outcomes are retained under the response's ids.
        entry = {
            e["request_id"]: e for e in obs.flight_recorder.entries()
        }[headers["X-Request-Id"]]
        assert entry["trace_id"] == TRACE
        assert entry["outcome"] == ("shed" if status == 503 else "error")
        assert entry["tags"]["status"] == status
        # An admitted crash keeps the spans it got to.
        assert bool(entry["spans"]) == admitted


def test_one_log_record_per_response(make_server):
    """Each response leaves its completion's ``request`` event and no
    access line; the handler's error lines are still recorded."""
    server = make_server()
    for _ in range(5):
        assert exchange(server, "GET", "/houses")[0] == 200
    assert len(obs.log.events("request")) == 5
    assert obs.log.events("serve.access") == []
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert b"Error code explanation: 400" in reply
    (line,) = [e["line"] for e in obs.log.events("serve.access")]
    assert "400" in line and "GARBAGE" in line


def test_operator_plane_adds_no_record(make_server):
    server = make_server()
    assert exchange(server, "GET", "/houses")[0] == 200
    before = sinks(server.service)
    for path in ("/health", "/metrics", "/debug/flight",
                 "/debug/flight?format=chrome"):
        status, headers, _ = exchange(server, "GET", path)
        assert status == 200
        assert headers["X-Request-Id"] and headers["traceparent"]
    assert sinks(server.service) == before


def test_both_slo_windows_time_decode_and_encode(make_server, monkeypatch):
    """One duration, from before the body is read to after the
    response is written, in the global and the tenant window alike."""
    server = make_server()
    delay = 0.05
    read_body, send_json = _Handler._read_body, _Handler._send_json

    def slow_read(self):
        time.sleep(delay)
        return read_body(self)

    def slow_send(self, *args):
        send_json(self, *args)
        time.sleep(delay)

    monkeypatch.setattr(_Handler, "_read_body", slow_read)
    monkeypatch.setattr(_Handler, "_send_json", slow_send)
    status, _, _ = exchange(server, "POST", "/houses", {"house_id": "h1"})
    assert status == 201
    global_snap = obs.slo_tracker.snapshot()
    tenant_snap = server.service.registry.get(TENANT).slo.snapshot()
    assert global_snap["count"] == tenant_snap["count"] == 1
    assert global_snap["p50_ms"] == tenant_snap["p50_ms"]
    assert global_snap["p50_ms"] >= 2 * delay * 1e3


def test_each_served_request_mints_one_span_id(
    make_server, monkeypatch, kettle_watts
):
    server = make_server()
    _create(server)
    assert exchange(server, "POST", "/houses/h1/ingest",
                    {"watts": [float(w) for w in kettle_watts]})[0] == 200
    assert exchange(server, "POST", "/houses/h1/devices",
                    {"appliance": "kettle"})[0] == 201
    minted = []
    mint = obs_context.new_span_id_hex
    monkeypatch.setattr(
        obs_context, "new_span_id_hex", lambda: minted.append(1) or mint()
    )
    with obs.tracer.capture() as captured:
        status, headers, _ = exchange(
            server, "POST", "/houses/h1/localize",
            {"appliance": "kettle", "start": 0, "length": 128},
        )
    assert status == 200
    assert len(minted) == 1
    # The request scope's spans carry the id the response names.
    rid = headers["X-Request-Id"]
    assert any(r.request_id == rid for r in captured.roots())


def test_chrome_export_downloads_the_retained_traces(make_server, monkeypatch):
    server = make_server()
    _crash_thunk(server, monkeypatch)
    assert exchange(server, "GET", "/houses")[0] == 500
    status, headers, chrome = exchange(
        server, "GET", "/debug/flight?format=chrome"
    )
    assert status == 200
    assert "attachment" in headers["Content-Disposition"]
    assert chrome["traceEvents"]
    status, _, flight = exchange(server, "GET", "/debug/flight")
    assert status == 200
    assert flight["entries"]
    assert all(e["trace_id"] for e in flight["entries"])
