"""The socket layer: stdlib HTTP server over the service logic.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no new hard
dependencies, mirroring the repo's Streamlit-substitution pattern (a
FastAPI veneer could wrap :class:`~repro.serve.service.DeviceScopeService`
verbatim; the routes below follow the exemplar energy-analyzer API).

Routes (tenant from the ``X-Tenant-Id`` header or ``?tenant=`` query,
default ``"default"``):

=======  ====================================  ======================
Method   Path                                  Meaning
=======  ====================================  ======================
GET      /health                               process health (always)
GET      /metrics                              OpenMetrics (always)
GET      /appliances                           served model bank
GET      /houses                               list tenant houses
POST     /houses                               create a house
GET      /houses/{id}                          house summary
DELETE   /houses/{id}                          drop a house
POST     /houses/{id}/ingest                   append watt readings
POST     /houses/{id}/append                   streaming append (resampling)
GET      /houses/{id}/series                   read back a window
GET      /houses/{id}/live_localize            incremental live localization
GET      /houses/{id}/devices                  list attached devices
POST     /houses/{id}/devices                  attach an appliance
DELETE   /houses/{id}/devices/{appliance}      detach an appliance
POST     /houses/{id}/detect                   detection probability
POST     /houses/{id}/localize                 per-sample localization
GET      /debug/flight                         flight-recorder traces
=======  ====================================  ======================

Billing (DESIGN.md §14): every request outside the operator plane —
routed or not — is one completion record, opened by
:meth:`DeviceScopeService.record` at handler entry (before the body is
read) and closed after the last response byte is written;
:meth:`DeviceScopeService.execute` fills it in for routed requests.
Responses the handler makes itself (400 bad JSON, 413 on
``Content-Length``, 404, 405, 500) are billed to the route name
(``unrouted`` when no route matched) and to the tenant header if it is
a valid id (else ``invalid``), and stay out of both SLO windows.
``/health``, ``/metrics``, and the ``/debug/*`` operator plane are
**admission-exempt** and unbilled: they must answer under overload, and
health pings must not dilute the SLO window they report on.

Trace context (DESIGN.md §14): every request's identity is minted once
(:func:`~repro.serve.service.mint_trace`) from its W3C
``traceparent``/``tracestate`` pair (malformed headers are ignored, a
fresh trace id is minted) and reused by the response headers, the
request scope and the record, so **every** response — including
404/405, body-parse 400s, 503 sheds, and 500s — carries
``X-Request-Id`` and ``traceparent`` headers.

Shutdown model (DESIGN.md §11): handler threads are non-daemon with
``block_on_close`` set, and the protocol is HTTP/1.0 (one request per
connection), so :meth:`DeviceScopeServer.close` = stop accepting →
join every in-flight handler → release the socket. No request is ever
abandoned mid-inference.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import obs
from .service import (
    DeviceScopeService,
    ModelBank,
    ServiceError,
    mint_trace,
)

__all__ = ["DeviceScopeServer", "build_server"]

DEFAULT_TENANT = "default"
MAX_BODY_BYTES = 32 * 1024 * 1024

_OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: (method, compiled path regex, route name)
_ROUTES: list[tuple[str, re.Pattern, str]] = [
    ("GET", re.compile(r"^/health$"), "health"),
    ("GET", re.compile(r"^/metrics$"), "metrics"),
    ("GET", re.compile(r"^/appliances$"), "appliances"),
    ("GET", re.compile(r"^/houses$"), "houses.list"),
    ("POST", re.compile(r"^/houses$"), "houses.create"),
    ("GET", re.compile(r"^/houses/(?P<hid>[^/]+)$"), "houses.get"),
    ("DELETE", re.compile(r"^/houses/(?P<hid>[^/]+)$"), "houses.delete"),
    ("POST", re.compile(r"^/houses/(?P<hid>[^/]+)/ingest$"), "ingest"),
    ("POST", re.compile(r"^/houses/(?P<hid>[^/]+)/append$"), "append"),
    ("GET", re.compile(r"^/houses/(?P<hid>[^/]+)/series$"), "series"),
    (
        "GET",
        re.compile(r"^/houses/(?P<hid>[^/]+)/live_localize$"),
        "live_localize",
    ),
    ("GET", re.compile(r"^/houses/(?P<hid>[^/]+)/devices$"), "devices.list"),
    ("POST", re.compile(r"^/houses/(?P<hid>[^/]+)/devices$"), "devices.attach"),
    (
        "DELETE",
        re.compile(r"^/houses/(?P<hid>[^/]+)/devices/(?P<appliance>[^/]+)$"),
        "devices.detach",
    ),
    ("POST", re.compile(r"^/houses/(?P<hid>[^/]+)/detect$"), "detect"),
    ("POST", re.compile(r"^/houses/(?P<hid>[^/]+)/localize$"), "localize"),
    # Operator plane: incident traces.
    ("GET", re.compile(r"^/debug/flight$"), "debug.flight"),
]

#: Routes that are admission-exempt and unbilled (see the module docstring).
_OPERATOR_PLANE = frozenset({"health", "metrics", "debug.flight"})

#: The route label of a response to a path/method pair no route matches.
UNROUTED = "unrouted"


def _lookup(method: str, path: str) -> tuple["str | None", "re.Match | None"]:
    """The matching route's name and path match, or ``(None, None)``."""
    for route_method, pattern, name in _ROUTES:
        if route_method == method:
            match = pattern.match(path)
            if match is not None:
                return name, match
    return None, None


def _unrouted(method: str, path: str) -> ServiceError:
    """405 for a wrong method on a known path, else 404."""
    if any(pattern.match(path) for _, pattern, _ in _ROUTES):
        return ServiceError(405, f"method {method} not allowed")
    return ServiceError(404, f"no route {path!r}")


def _error_response(err: Exception) -> tuple[int, dict]:
    if isinstance(err, ServiceError):
        return err.status, err.payload
    return 500, {"error": f"internal error: {type(err).__name__}"}


class _Handler(BaseHTTPRequestHandler):
    """JSON request router; all logic lives in the service."""

    server_version = "DeviceScope"
    # One request per connection: keeps the drain-on-close model simple
    # (every handler thread terminates after its response).
    protocol_version = "HTTP/1.0"

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> DeviceScopeService:
        return self.server.service  # type: ignore[attr-defined]

    def log_request(self, code="-", size="-") -> None:
        # Each response's completion record already logs a ``request``
        # event with route, tenant, status and duration.
        pass

    def log_message(self, format: str, *args) -> None:
        # stderr belongs to the operator; error lines go to obs.
        if obs.enabled():
            obs.log.event("serve.access", line=format % args)

    def _send_json(self, status: int, payload: dict, headers: dict) -> None:
        self._send_text(
            status,
            json.dumps(payload, default=float),
            "application/json; charset=utf-8",
            headers,
        )

    def _send_text(
        self, status: int, text: str, content_type: str, headers: dict
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ServiceError(400, f"invalid JSON body: {err}")
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON body must be an object")
        return body

    def _tenant_id(self, query: dict) -> str:
        header = self.headers.get("X-Tenant-Id")
        if header:
            return header
        values = query.get("tenant")
        return values[0] if values else DEFAULT_TENANT

    # -- dispatch ----------------------------------------------------------

    def _handle(self, method: str) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        trace = mint_trace(
            self.headers.get("traceparent"), self.headers.get("tracestate")
        )
        name, match = _lookup(method, path)
        # OSError: the client went away mid-response.
        with contextlib.suppress(OSError):
            if name in _OPERATOR_PLANE:
                self._operate(name, query, trace["headers"])
                return
            tenant_id = self._tenant_id(query)
            with self.service.record(trace, name or UNROUTED, tenant_id) as rec:
                try:
                    if name is None:
                        raise _unrouted(method, path)
                    status, payload, headers = self._dispatch(
                        name, match, query, tenant_id, trace
                    )
                except Exception as err:  # never kill the handler thread
                    # Made here: an unreadable body, no route, or a crash
                    # (which, if execute had admitted the request, it
                    # already reads as 500/error).
                    status, payload, headers = rec.answer(*_error_response(err))
                self._send_json(status, payload, headers)

    def _operate(self, name: str, query: dict, headers: dict) -> None:
        """The operator plane: unbilled and admission-exempt, so it keeps
        answering under overload and never touches SLO or cost state."""
        service = self.service
        try:
            if name == "metrics":
                text = service.metrics_text()
                self._send_text(200, text, _OPENMETRICS_CONTENT_TYPE, headers)
            elif name == "health":
                self._send_json(*service.health(), headers)
            else:
                fmt = (query.get("format") or [None])[0]
                status, payload = service.flight_payload(fmt)
                if fmt == "chrome":
                    disposition = 'attachment; filename="flight.json"'
                    headers = {**headers, "Content-Disposition": disposition}
                self._send_json(status, payload, headers)
        except Exception as err:  # never kill the handler thread
            self._send_json(*_error_response(err), headers)

    def _dispatch(
        self, name: str, match, query: dict, tenant_id: str, trace: dict
    ) -> tuple[int, dict, dict]:
        service = self.service
        body = (
            self._read_body()
            if self.command in ("POST", "PUT", "PATCH")
            else {}
        )
        groups = match.groupdict()
        hid = groups.get("hid")

        def _int_param(key: str) -> int | None:
            values = query.get(key)
            if not values:
                return None
            try:
                return int(values[0])
            except ValueError:
                raise ServiceError(400, f"{key} must be an integer")

        thunks = {
            "appliances": lambda t: service.appliances(),
            "houses.list": lambda t: service.list_houses(t),
            "houses.create": lambda t: service.create_house(t, body),
            "houses.get": lambda t: service.get_house(t, hid),
            "houses.delete": lambda t: service.delete_house(t, hid),
            "ingest": lambda t: service.ingest(t, hid, body),
            "append": lambda t: service.append(t, hid, body),
            "series": lambda t: service.series(
                t, hid, _int_param("start"), _int_param("length")
            ),
            "live_localize": lambda t: service.live_localize(
                t,
                hid,
                (query.get("appliance") or [None])[0],
                _int_param("window"),
            ),
            "devices.list": lambda t: service.list_devices(t, hid),
            "devices.attach": lambda t: service.attach_device(t, hid, body),
            "devices.detach": lambda t: service.detach_device(
                t, hid, groups["appliance"]
            ),
            "detect": lambda t: service.detect(t, hid, body),
            "localize": lambda t: service.localize(t, hid, body),
        }
        return service.execute(name, tenant_id, thunks[name], trace=trace)

    # BaseHTTPRequestHandler entry points.
    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


class DeviceScopeServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service instance."""

    # Non-daemon + block_on_close: close() joins every in-flight
    # handler before releasing the socket (graceful drain).
    daemon_threads = False
    block_on_close = True

    def __init__(self, address: tuple[str, int], service: DeviceScopeService):
        super().__init__(address, _Handler)
        self.service = service
        self._serve_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DeviceScopeServer":
        """Serve in a background thread (idempotent)."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="devicescope-serve",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, drain in-flight handlers, release the port."""
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.server_close()
        # Handlers are drained; release the service's resources.
        self.service.close()

    @contextlib.contextmanager
    def running(self):
        """``with server.running(): ...`` — start, then always close."""
        self.start()
        try:
            yield self
        finally:
            self.close()


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    appliances: tuple[str, ...] = ("kettle",),
    profile: str = "ukdale",
    seed: int = 0,
    bank: ModelBank | None = None,
    service: DeviceScopeService | None = None,
    slo_objective_ms: float | None = None,
    batch_window_ms: float | None = None,
    batch_max: int | None = None,
) -> DeviceScopeServer:
    """Wire a ready-to-start server (``port=0`` picks an ephemeral one).

    ``slo_objective_ms`` seeds the per-tenant trackers (the CLI's
    ``--objective-ms``); the caller is expected to set the matching
    objective on the global ``obs.slo_tracker`` — per-tenant and global
    health must judge latency against the same bar.

    ``batch_window_ms`` / ``batch_max`` tune the request micro-batcher
    (the CLI's ``--batch-window-ms`` / ``--batch-max``); ``batch_max=1``
    or ``batch_window_ms=0`` disables coalescing entirely. Ignored when
    a pre-built ``service`` is passed.
    """
    if service is None:
        from .tenancy import TenantRegistry

        registry = (
            None
            if slo_objective_ms is None
            else TenantRegistry(slo_objective_ms=slo_objective_ms)
        )
        batch_kwargs = {}
        if batch_window_ms is not None:
            batch_kwargs["batch_window_ms"] = batch_window_ms
        if batch_max is not None:
            batch_kwargs["batch_max"] = batch_max
        service = DeviceScopeService(
            bank=bank
            or ModelBank(appliances=appliances, profile=profile, seed=seed),
            registry=registry,
            **batch_kwargs,
        )
    return DeviceScopeServer((host, port), service)
