"""``repro.serve`` — the multi-tenant HTTP service over the engine.

The paper ships DeviceScope as a single-user Streamlit app; this
package is the production counterpart (DESIGN.md §11): a JSON API over
the tested inference engine, built — like every other layer in the
repo — on the standard library alone (``http.server``'s
``ThreadingHTTPServer``), mirroring the Streamlit-substitution pattern.

Layers, inside out:

* :mod:`~repro.serve.tenancy` — per-tenant session state behind a
  lock-striped :class:`TenantRegistry`: each tenant owns its houses,
  attached devices, :class:`~repro.core.ResultCache`, and
  :class:`~repro.obs.SloTracker`; tenants never observe each other's
  data or cache entries.
* :mod:`~repro.serve.admission` — :class:`AdmissionController`, load
  shedding driven by SLO burn rate and the model-quality status
  (``repro.quality``): overload answers 503 + ``Retry-After`` instead
  of crashing, with probe-based shed→accept hysteresis.
* :mod:`~repro.serve.batching` — :class:`MicroBatcher`, cross-request
  micro-batching: concurrent detect/localize requests for the same
  appliance (and window length) coalesce into one stacked ensemble
  sweep under the sweep lock, bit-identical per row to solo sweeps
  (DESIGN.md §12).
* :mod:`~repro.serve.service` — :class:`DeviceScopeService`, the
  transport-free request logic (CRUD, ingestion, detect/localize
  through the CamAL sweep + cache, metrics/health payloads); every
  response is one completion record that feeds the SLO windows, the
  cost ledger and telemetry alike.
* :mod:`~repro.serve.http` — the socket layer: JSON routing, tenant
  extraction, error mapping, graceful shutdown.

Quick start::

    from repro.serve import build_server

    server = build_server(port=0)           # ephemeral port
    with server.running():
        print(server.url)                   # http://127.0.0.1:NNNNN
        ...                                 # curl away

or from the shell: ``devicescope serve --port 8000``.
"""

from __future__ import annotations

from .admission import AdmissionController, AdmissionDecision
from .batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, MicroBatcher
from .http import DeviceScopeServer, build_server
from .service import DeviceScopeService, ModelBank
from .tenancy import (
    TenantHouse,
    TenantRegistry,
    TenantSession,
    tenant_slo_snapshots,
    tenant_trackers,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TenantHouse",
    "TenantSession",
    "TenantRegistry",
    "tenant_trackers",
    "tenant_slo_snapshots",
    "ModelBank",
    "MicroBatcher",
    "DEFAULT_BATCH_WINDOW_MS",
    "DEFAULT_BATCH_MAX",
    "DeviceScopeService",
    "DeviceScopeServer",
    "build_server",
]
