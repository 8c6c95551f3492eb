"""Plain reference CamAL: the oracle the single-sweep pipeline must match.

Steps 1-6 of the paper (§II.B) written the direct way — one backbone
pass per consumer (probability, then CAM), post-processing knobs as
plain loops — from nothing but ``ResNetTSC.predict_proba``,
``ResNetTSC.class_activation_map``, ``normalize_cam`` and numpy.
``CamAL.localize`` must be bit-identical to :func:`reference_localize`.
"""

import numpy as np

from repro.core import CamALResult
from repro.models import normalize_cam


def _smooth(cam, window):
    pad = window // 2
    csum = np.cumsum(np.pad(cam, [(0, 0), (pad, pad)], mode="edge"), axis=1)
    csum = np.concatenate([np.zeros((len(cam), 1)), csum], axis=1)
    return ((csum[:, window:] - csum[:, :-window]) / window)[:, : cam.shape[1]]


def _drop_short_runs(status, min_length):
    for row in status:
        t = 0
        while t < row.size:
            end = t
            while end < row.size and row[end] > 0.5:
                end += 1
            if end - t < min_length:
                row[t:end] = 0.0
            t = max(end, t + 1)
    return status


def reference_localize(model, x):
    """Steps 1-6 on standardized windows ``(N, 1, T)``."""
    cfg = model.config
    members = model.ensemble.members
    member_probabilities = {i: m.predict_proba(x) for i, m in enumerate(members)}
    probabilities = np.mean(list(member_probabilities.values()), axis=0)
    detected = probabilities > cfg.detection_threshold
    cam = np.mean(
        [normalize_cam(m.class_activation_map(x)) for m in members], axis=0
    )
    if cfg.cam_floor > 0.0:
        cam = np.where(cam >= cfg.cam_floor, cam, 0.0)
    if cfg.smooth_window > 1:
        cam = _smooth(cam, cfg.smooth_window)
    masked = cam * x[:, 0, :]
    attention = np.empty_like(masked)
    pos = masked >= 0
    attention[pos] = 1.0 / (1.0 + np.exp(-masked[pos]))
    attention[~pos] = np.exp(masked[~pos]) / (1.0 + np.exp(masked[~pos]))
    status = (attention > cfg.status_threshold).astype(np.float64)
    status[~detected] = 0.0
    if cfg.min_on_duration > 1:
        status = _drop_short_runs(status, cfg.min_on_duration)
    n = len(probabilities)
    return CamALResult(
        probabilities=probabilities,
        detected=detected,
        cam=cam,
        attention=attention,
        status=status,
        member_probabilities=member_probabilities,
        uncertainty=np.std(list(member_probabilities.values()), axis=0),
        repaired=np.zeros(n, dtype=bool),
        degraded=np.zeros(n, dtype=bool),
    )


def reference_localize_watts(model, watts):
    """:func:`reference_localize` on clean raw-watt windows ``(N, T)``."""
    return reference_localize(model, model.scaler.transform(watts)[:, None, :])
