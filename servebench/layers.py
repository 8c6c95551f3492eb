"""The traced run: spans around each layer's public entry points.

:func:`instrument` swaps each entry point below for a wrapper that
records a span (see :mod:`servebench.spans`) and restores the originals
on exit; nothing in the program changes. ``obs.ModuleProfiler`` on the
served ensembles supplies the per-``nn``-layer forward times, and the
public ``stats()`` of the tenants' result caches and of the micro-batcher
supply hit and batch counts. :func:`layer_metrics` turns all of it into
the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib

from .spans import SpanRecorder, parse_traceparent_ids, self_times

__all__ = ["LAYERS", "instrument", "layer_metrics"]

#: Layers in the order the per-layer table lists them.
LAYERS = (
    "serve.http",
    "serve.service",
    "serve.admission",
    "core.cache",
    "serve.batching",
    "core.camal",
    "robust",
    "models.ensemble",
    "nn",
    "stream.live",
    "stream.sliding",
    "serve.tenancy",
)


def _entry_points():
    """``(owner, attribute, layer, on_return)`` for every traced call."""
    from repro.core import CamAL, ResultCache
    from repro.core import camal as camal_module
    from repro.models import ResNetEnsemble
    from repro.models.resnet import ResNetTSC
    from repro.serve import AdmissionController, DeviceScopeService, MicroBatcher, TenantHouse
    from repro.serve import service as service_module
    from repro.stream import LiveStore, SlidingCamAL
    from repro.stream import sliding as sliding_module

    def accepted(attrs, args, kwargs, out):
        attrs["accepted"] = bool(out.accepted)

    def rows(attrs, args, kwargs, out):
        attrs["rows"] = int(out.probabilities.shape[0])

    def committed(attrs, args, kwargs, out):
        attrs["committed"] = int(out)

    def reuse(attrs, args, kwargs, out):
        attrs["reused"], attrs["computed"] = int(out.reused), int(out.computed)

    return [
        (DeviceScopeService, "ingest", "serve.service", None),
        (DeviceScopeService, "append", "serve.service", None),
        (DeviceScopeService, "series", "serve.service", None),
        (DeviceScopeService, "detect", "serve.service", None),
        (DeviceScopeService, "localize", "serve.service", None),
        (DeviceScopeService, "live_localize", "serve.service", None),
        (AdmissionController, "decide", "serve.admission", accepted),
        (ResultCache, "get_or_compute", "core.cache", None),
        (service_module, "window_key", "core.cache", None),
        (MicroBatcher, "localize", "serve.batching", None),
        (CamAL, "localize_watts", "core.camal", rows),
        (camal_module, "validate_window", "robust", None),
        (sliding_module, "validate_window", "robust", None),
        (ResNetEnsemble, "member_outputs", "models.ensemble", None),
        # A member's backbone pass is nothing but nn modules: its span
        # separates nn time from the ensemble and sliding code around it.
        (ResNetTSC, "forward_features", "nn", None),
        (LiveStore, "append", "stream.live", committed),
        (SlidingCamAL, "localize", "stream.sliding", reuse),
        (TenantHouse, "ingest", "serve.tenancy", None),
        (TenantHouse, "append", "serve.tenancy", None),
        (TenantHouse, "read_window", "serve.tenancy", None),
    ]


def _span_name(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


def _patch(stack: contextlib.ExitStack, owner, attr: str, replacement) -> None:
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, models, im2col_bytes: list):
    """Trace every entry point while the block runs.

    ``models`` are the served :class:`~repro.core.CamAL` instances; the
    block yields one ``obs.ModuleProfiler`` per model. Each ``Conv1d``
    forward appends the byte size of its im2col tensor
    ``(N, C_in, L_out, K)`` float64 to ``im2col_bytes``.
    """
    from repro.nn import Conv1d
    from repro.obs import ModuleProfiler
    from repro.serve import DeviceScopeService

    with contextlib.ExitStack() as stack:
        for owner, attr, layer, on_return in _entry_points():
            original = getattr(owner, attr)
            _patch(stack, owner, attr,
                   recorder.wrap(original, _span_name(owner, attr), layer, on_return))

        execute = DeviceScopeService.execute

        def traced_execute(service, route, tenant_id, thunk, admission_exempt=False, trace=None):
            ids = parse_traceparent_ids(trace)
            if ids is None:
                return execute(service, route, tenant_id, thunk, admission_exempt, trace)
            with recorder.span(
                "DeviceScopeService.execute", "serve.service",
                op_id=ids[0], parent_id=ids[1], route=route,
            ):
                return execute(service, route, tenant_id, thunk, admission_exempt, trace)

        _patch(stack, DeviceScopeService, "execute", traced_execute)

        conv_forward = Conv1d.forward

        def counted_forward(conv, x):
            n, c, length = x.shape
            if conv.padding == "same":
                l_out = length
            else:
                l_out = (length + 2 * conv.padding - conv.span) // conv.stride + 1
            im2col_bytes.append(n * c * l_out * conv.kernel_size * 8)
            return conv_forward(conv, x)

        # Class patches first: the profilers capture each module's
        # forward when they attach, and must capture the counting one.
        _patch(stack, Conv1d, "forward", counted_forward)
        profilers = [stack.enter_context(ModuleProfiler(m.ensemble)) for m in models]
        yield profilers


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    profilers,
    im2col_bytes: list,
    n_ops: int,
    elapsed_s: float,
    cache_delta: dict,
    batch_delta: dict,
) -> tuple[dict, list]:
    """Per-layer metrics plus the per-layer self-time table.

    Time metrics are means per call unless their name says otherwise;
    ``nn.*`` figures are per op. ``*.self_share`` is the layer's share
    of the ops' summed wall time, from self times; the table adds
    ``incl_share``, the same share for the time inside the layer's
    outermost spans, callees included.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name, scale=1e3):
        return [s.duration * scale for s in by_name.get(name, [])]

    def self_ms(*names):
        return [selfs[s.span_id] * 1e3 for n in names for s in by_name.get(n, [])]

    ops = max(n_ops, 1)
    op_time = sum(s.duration for s in by_name.get("op", []))
    layer_of = {s.span_id: s.layer for s in spans}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_incl = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer] += selfs[s.span_id]
            layer_calls[s.layer] += 1
            if layer_of.get(s.parent_id) != s.layer:  # outermost span of its layer
                layer_incl[s.layer] += s.duration
    sweeps = by_name.get("CamAL.localize_watts", [])
    windows = sum(s.attrs.get("rows", 0) for s in sweeps)
    decides = by_name.get("AdmissionController.decide", [])
    slides = by_name.get("SlidingCamAL.localize", [])
    reused = sum(s.attrs.get("reused", 0) for s in slides)
    computed = sum(s.attrs.get("computed", 0) for s in slides)
    nn_rows = [row for p in profilers for row in p.stats()]

    def nn_total(layer, key):
        return sum(r[key] for r in nn_rows if r["layer"] == layer)

    lookups = cache_delta["hits"] + cache_delta["misses"]
    metrics = {
        "serve.http.transport_ms": _mean(self_ms("http.request")),
        "serve.service.execute_ms": _mean(durations("DeviceScopeService.execute")),
        "serve.service.parse_ms": _mean(
            self_ms("DeviceScopeService.ingest", "DeviceScopeService.append")
        ),
        "serve.service.series_ms": _mean(durations("DeviceScopeService.series")),
        "serve.admission.decide_us": _mean(durations("AdmissionController.decide", 1e6)),
        "serve.admission.shed_total": sum(not s.attrs.get("accepted", True) for s in decides),
        "core.cache.hit_ratio": cache_delta["hits"] / lookups if lookups else 0.0,
        "core.cache.window_key_us": _mean(durations("window_key", 1e6)),
        "serve.batching.calls": len(by_name.get("MicroBatcher.localize", [])),
        "serve.batching.wait_ms": _mean(self_ms("MicroBatcher.localize")),
        "serve.batching.batch_size_mean": (
            batch_delta["windows"] / batch_delta["batches"] if batch_delta["batches"] else 0.0
        ),
        "serve.batching.coalesced_ratio": (
            batch_delta["coalesced"] / batch_delta["windows"] if batch_delta["windows"] else 0.0
        ),
        "core.camal.sweep_ms_per_window": (
            sum(s.duration for s in sweeps) * 1e3 / windows if windows else 0.0
        ),
        "core.camal.windows_total": windows,
        "core.camal.busy_share": sum(s.duration for s in sweeps) / elapsed_s,
        "robust.validate_ms": _mean(durations("validate_window")),
        "models.ensemble.member_outputs_ms": _mean(durations("ResNetEnsemble.member_outputs")),
        "nn.Conv1d.forward_ms": nn_total("Conv1d", "forward_s") * 1e3 / ops,
        "nn.Conv1d.calls": nn_total("Conv1d", "calls") / ops,
        "nn.Conv1d.im2col_mb": sum(im2col_bytes) / 1e6 / ops,
        "nn.BatchNorm1d.forward_ms": nn_total("BatchNorm1d", "forward_s") * 1e3 / ops,
        "stream.live.append_ms": _mean(durations("LiveStore.append")),
        "stream.live.samples_committed": sum(
            s.attrs.get("committed", 0) for s in by_name.get("LiveStore.append", [])
        ),
        "stream.sliding.localize_ms": _mean(durations("SlidingCamAL.localize")),
        "stream.sliding.reuse_ratio": reused / (reused + computed) if reused + computed else 0.0,
        "serve.tenancy.ingest_ms": _mean(durations("TenantHouse.ingest")),
        "serve.tenancy.read_window_ms": _mean(durations("TenantHouse.read_window")),
    }
    table = []
    for layer in LAYERS:
        share = layer_self[layer] / op_time if op_time else 0.0
        metrics[f"{layer}.self_share"] = share
        table.append({
            "layer": layer,
            "calls_per_op": layer_calls[layer] / ops,
            "self_ms_per_op": layer_self[layer] * 1e3 / ops,
            "self_share": share,
            # With the layers it calls: what the layer's entry points cost.
            "incl_share": layer_incl[layer] / op_time if op_time else 0.0,
        })
    return metrics, table
