"""CamAL — Class Activation Map-based Appliance Localization.

The paper's contribution (§II.B), implemented step by step:

1. **Ensemble prediction** — average the members' probabilities.
2. **Appliance detection** — compare to a threshold (default 0.5).
3. **CAM extraction** — per member, ``CAM_1(t) = Σ_k w_k^1 · f_k(t)``.
4. **CAM processing** — min-max normalize each CAM to [0, 1], average.
5. **Attention mechanism** — ``s(t) = sigmoid(CAM_avg(t) ∘ x(t))`` on the
   *standardized* input (below-average power is negative, so it maps
   below 0.5 → OFF; see ``repro.datasets.windows.Standardizer``).
6. **Appliance status** — round ``s(t)`` at 0.5; windows where the
   ensemble did not detect the appliance are all-OFF. Exactly 0.5 (which
   happens wherever the normalized CAM is exactly zero, since
   ``sigmoid(0 · x) = 0.5``) breaks toward OFF — the same behaviour as
   ``numpy.round`` and the only non-degenerate reading of the paper's
   "rounded to obtain binary labels".

Optional post-processing knobs (off by default — they are *extensions*
the ablation benches evaluate, not part of the paper's recipe):
``cam_floor`` zeroes weak CAM regions, ``smooth_window`` moving-averages
the CAM, ``min_on_duration`` drops implausibly short ON runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs, quality
from ..datasets import Standardizer, WindowSet
from ..models import ResNetEnsemble, TrainConfig, train_ensemble
from ..models.ensemble import normalize_cam
from ..nn import functional as F
from ..nn.module import inference_mode
from ..robust import faults
from ..robust.validate import Verdict, validate_window

__all__ = [
    "CamALConfig",
    "CamALResult",
    "remove_short_runs",
    "recommended_config",
    "CamAL",
]


def remove_short_runs(status: np.ndarray, min_length: int) -> np.ndarray:
    """Zero out ON runs shorter than ``min_length`` samples.

    Works row-wise on a ``(N, T)`` binary stack. ``min_length <= 1`` is a
    no-op. Fully vectorized: run boundaries come from a diff over the
    padded mask flattened row-major (the padding column guarantees runs
    never span rows), and short runs are erased with one boundary-delta
    cumsum instead of a Python loop per run.
    """
    status = np.asarray(status, dtype=np.float64)
    if status.ndim != 2:
        raise ValueError(f"expected (N, T) status, got shape {status.shape}")
    out = status.copy()
    if min_length <= 1:
        return out
    n, t = out.shape
    padded = np.zeros((n, t + 2), dtype=bool)
    padded[:, 1:-1] = out > 0.5
    # starts[i, j] / ends[i, j]: a run of row i begins / ends (exclusive)
    # at sample j; both land in [0, t].
    starts = padded[:, 1:] & ~padded[:, :-1]
    ends = ~padded[:, 1:] & padded[:, :-1]
    flat_starts = np.flatnonzero(starts.ravel())
    flat_ends = np.flatnonzero(ends.ravel())
    short = (flat_ends - flat_starts) < min_length
    if short.any():
        # Boundary deltas over the flattened (n, t + 1) grid: +1 at each
        # short run's start, -1 at its end; the running sum is positive
        # exactly inside short runs (they cancel before any row boundary).
        delta = np.zeros(n * (t + 1) + 1, dtype=np.int64)
        np.add.at(delta, flat_starts[short], 1)
        np.add.at(delta, flat_ends[short], -1)
        in_short = np.cumsum(delta[:-1]).reshape(n, t + 1)[:, :t] > 0
        out[in_short] = 0.0
    return out


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along the last axis (edge-padded).

    Cumsum-based sliding sums — O(T) per row regardless of ``window``,
    with no per-row Python dispatch.
    """
    if window <= 1:
        return x
    pad = window // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="edge")
    cumsum = np.cumsum(padded, axis=-1, dtype=np.float64)
    zero = np.zeros(cumsum.shape[:-1] + (1,), dtype=np.float64)
    cumsum = np.concatenate([zero, cumsum], axis=-1)
    out = (cumsum[..., window:] - cumsum[..., :-window]) / window
    return out[..., : x.shape[-1]]


#: Batches larger than this many windows are swept in chunks to bound
#: peak memory (the backbone's intermediates scale with ``N * T``);
#: results are concatenated, bit-identical to one unchunked sweep.
CHUNK_SIZE = 1024


def _chunks(x: np.ndarray):
    if x.shape[0] <= CHUNK_SIZE:
        yield x
        return
    for start in range(0, x.shape[0], CHUNK_SIZE):
        yield x[start : start + CHUNK_SIZE]


def _concat_results(parts: list["CamALResult"]) -> "CamALResult":
    """Stitch per-chunk :class:`CamALResult` pieces back into one batch."""
    member_keys = list(parts[0].member_probabilities)
    return CamALResult(
        probabilities=np.concatenate([p.probabilities for p in parts]),
        detected=np.concatenate([p.detected for p in parts]),
        cam=np.concatenate([p.cam for p in parts], axis=0),
        attention=np.concatenate([p.attention for p in parts], axis=0),
        status=np.concatenate([p.status for p in parts], axis=0),
        member_probabilities={
            key: np.concatenate([p.member_probabilities[key] for p in parts])
            for key in member_keys
        },
        uncertainty=np.concatenate([p.uncertainty for p in parts]),
        repaired=np.concatenate([p.repaired for p in parts]),
        degraded=np.concatenate([p.degraded for p in parts]),
    )


@dataclass(frozen=True)
class CamALConfig:
    """Inference-time configuration for CamAL."""

    detection_threshold: float = 0.5
    status_threshold: float = 0.5
    cam_floor: float = 0.0
    smooth_window: int = 0
    min_on_duration: int = 0

    def __post_init__(self):
        if not 0.0 < self.detection_threshold < 1.0:
            raise ValueError("detection_threshold must be in (0, 1)")
        if not 0.0 < self.status_threshold < 1.0:
            raise ValueError("status_threshold must be in (0, 1)")
        if not 0.0 <= self.cam_floor < 1.0:
            raise ValueError("cam_floor must be in [0, 1)")
        if self.smooth_window < 0 or self.min_on_duration < 0:
            raise ValueError("window/duration knobs must be >= 0")


#: Per-appliance inference configs tuned on the synthetic validation
#: sets (see the ABL-CAM bench). Short high-power appliances benefit
#: from zeroing weak CAM regions — their activations concentrate the
#: CAM, and flooring removes the above-average-power false positives
#: elsewhere in the window. Long multi-phase cycles (dishwasher, washing
#: machine) spread their CAM evidence and are best left at the paper's
#: default recipe.
_TUNED_CONFIGS: dict[str, CamALConfig] = {
    "kettle": CamALConfig(cam_floor=0.5, min_on_duration=2),
    "microwave": CamALConfig(cam_floor=0.5, min_on_duration=2),
    "shower": CamALConfig(cam_floor=0.5, min_on_duration=2),
    "dishwasher": CamALConfig(),
    "washing_machine": CamALConfig(),
}


def recommended_config(appliance: str) -> CamALConfig:
    """The tuned :class:`CamALConfig` for a catalogue appliance.

    Unknown appliances get the paper's default recipe.
    """
    return _TUNED_CONFIGS.get(appliance, CamALConfig())


@dataclass
class CamALResult:
    """Everything CamAL computes for a batch of windows.

    The app's probability tab and per-device view render these
    intermediates directly.
    """

    probabilities: np.ndarray  # (N,) ensemble detection probability
    detected: np.ndarray  # (N,) bool
    cam: np.ndarray  # (N, T) averaged normalized CAM
    attention: np.ndarray  # (N, T) sigmoid(CAM ∘ x)
    status: np.ndarray  # (N, T) binary localization
    member_probabilities: dict = field(default_factory=dict)
    uncertainty: np.ndarray = field(default_factory=lambda: np.empty(0))
    # (N,) std of member probabilities — ensemble disagreement; high
    # values flag windows where the detection is not to be trusted.
    repaired: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    # (N,) True where the input window had defects that the robust
    # layer repaired (short NaN gaps interpolated, negatives clipped).
    degraded: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    # (N,) True where the window was unusable — no localization ran:
    # probability is NaN, detected False, status all-OFF.

    @property
    def any_degraded(self) -> bool:
        return bool(self.degraded.any()) if self.degraded.size else False

    @property
    def any_repaired(self) -> bool:
        return bool(self.repaired.any()) if self.repaired.size else False

    def row(self, index: int) -> "CamALResult":
        """A single-window :class:`CamALResult` for batch row ``index``.

        Every array is *copied* so holding one row (e.g. in a result
        cache) never pins the whole batch's memory alive.
        """
        n = self.probabilities.shape[0]
        if not -n <= index < n:
            raise IndexError(f"row {index} out of range for batch of {n}")
        sl = slice(index, index + 1) if index != -1 else slice(-1, None)
        return CamALResult(
            probabilities=self.probabilities[sl].copy(),
            detected=self.detected[sl].copy(),
            cam=self.cam[sl].copy(),
            attention=self.attention[sl].copy(),
            status=self.status[sl].copy(),
            member_probabilities={
                key: value[sl].copy()
                for key, value in self.member_probabilities.items()
            },
            uncertainty=self.uncertainty[sl].copy(),
            repaired=self.repaired[sl].copy(),
            degraded=self.degraded[sl].copy(),
        )

    def split(self) -> list["CamALResult"]:
        """Scatter a batch result into independent per-window results.

        The micro-batcher's inverse of stacking: row ``i`` of the
        returned list is exactly what ``localize_watts(watts[i:i+1])``
        would have produced (batched sweeps are bit-identical to
        per-window sweeps — DESIGN.md §12).
        """
        return [self.row(i) for i in range(self.probabilities.shape[0])]


class CamAL:
    """The full detector + localizer.

    Parameters
    ----------
    ensemble:
        A trained :class:`~repro.models.ResNetEnsemble`.
    scaler:
        The training-set standardizer — required to accept watt inputs
        and to run the attention step in standardized space.
    config:
        Inference configuration.
    """

    def __init__(
        self,
        ensemble: ResNetEnsemble,
        scaler: Standardizer,
        config: CamALConfig | None = None,
    ):
        self.ensemble = ensemble
        self.scaler = scaler
        self.config = config or CamALConfig()

    # -- training ----------------------------------------------------------

    @classmethod
    def train(
        cls,
        windows: WindowSet,
        kernel_sizes: tuple[int, ...] = (5, 7, 9, 15),
        n_filters: tuple[int, int, int] = (16, 32, 32),
        train_config: TrainConfig | None = None,
        config: CamALConfig | None = None,
        select_top: int | None = None,
        seed: int = 0,
    ) -> "CamAL":
        """Train a CamAL model from weakly labeled windows.

        Only ``windows.y_weak`` is consumed — the per-timestep ground
        truth never influences training, matching the paper's weak
        supervision claim.
        """
        ensemble = ResNetEnsemble(
            kernel_sizes=kernel_sizes, n_filters=n_filters, seed=seed
        )
        ensemble, _ = train_ensemble(
            ensemble, windows, train_config, select_top=select_top
        )
        return cls(ensemble, windows.scaler, config)

    # -- inference ------------------------------------------------------------

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != 1:
            raise ValueError(f"expected (N, 1, T) input, got shape {x.shape}")
        return x

    def detect(self, x: np.ndarray) -> np.ndarray:
        """Step 1-2: ensemble detection probabilities ``(N,)``.

        Runs inside a request scope (joining the caller's active
        ``obs.request`` if any) so spans/metrics are attributable.
        """
        x = self._validate(x)
        with obs.request(kind="camal.detect"), obs.span(
            "camal.detect", n_windows=x.shape[0]
        ):
            with inference_mode():
                probabilities = np.concatenate(
                    [self.ensemble.predict_proba(chunk) for chunk in _chunks(x)]
                )
        self._record_detection(probabilities)
        return probabilities

    def _record_detection(self, probabilities: np.ndarray) -> None:
        if not obs.enabled():
            return
        obs.registry.histogram(
            "camal.detection_probability",
            help="ensemble detection probability per window",
            buckets=obs.PROBABILITY_BUCKETS,
        ).observe_many(probabilities)

    def _record_cam_stats(self, cam: np.ndarray) -> None:
        if not obs.enabled():
            return
        registry = obs.registry
        registry.histogram(
            "camal.cam_mean",
            help="per-window mean of the averaged normalized CAM",
            buckets=obs.PROBABILITY_BUCKETS,
        ).observe_many(cam.mean(axis=-1))
        registry.histogram(
            "camal.cam_max",
            help="per-window peak of the averaged normalized CAM",
            buckets=obs.PROBABILITY_BUCKETS,
        ).observe_many(cam.max(axis=-1))

    def localize(self, x: np.ndarray) -> CamALResult:
        """Run the full six-step pipeline on standardized windows.

        Each paper stage runs under its own :mod:`repro.obs` span
        (``camal.ensemble_forward`` … ``camal.threshold``) so
        ``devicescope profile`` can show where inference time goes.
        Detection probabilities and CAMs share one backbone pass per
        member, batches larger than :data:`CHUNK_SIZE` windows are
        processed in chunks, and no layer retains backward caches.
        """
        x = self._validate(x)
        faults.checkpoint("camal.localize")
        with obs.request(kind="camal.localize"), obs.span(
            "camal.localize", n_windows=x.shape[0], window_length=x.shape[2]
        ) as root:
            parts = [self._sweep(chunk) for chunk in _chunks(x)]
            result = parts[0] if len(parts) == 1 else _concat_results(parts)
            root.set(detected=int(result.detected.sum()))
        self._record_detection(result.probabilities)
        self._record_cam_stats(result.cam)
        if obs.enabled():
            obs.registry.counter(
                "camal.windows_localized_total",
                help="windows run through CamAL.localize",
            ).inc(x.shape[0])
        return result

    def _sweep(self, x: np.ndarray) -> CamALResult:
        """Steps 1-6 for one chunk: one backbone pass per member."""
        with inference_mode(), obs.span("camal.ensemble_forward"):
            outputs = self.ensemble.member_outputs(x)
        return self._from_outputs(x, outputs)

    def _from_outputs(
        self, x: np.ndarray, outputs: list[tuple[np.ndarray, np.ndarray]]
    ) -> CamALResult:
        """Steps 1-6 from per-member ``(features, logits)`` pairs.

        The one implementation of the paper's pipeline past the
        backbone: :meth:`localize` feeds it fresh member outputs,
        :class:`repro.stream.SlidingCamAL` its spliced ones.
        """
        cfg = self.config
        member_probabilities = {
            i: F.softmax(logits, axis=1)[:, 1]
            for i, (_, logits) in enumerate(outputs)
        }
        probabilities = np.mean(  # step 1
            list(member_probabilities.values()), axis=0
        )
        detected = probabilities > cfg.detection_threshold  # step 2
        with obs.span("camal.cam_extraction"):  # step 3: w_1 · features
            raw_cams = [
                member.cam_from_features(features)
                for member, (features, _) in zip(self.ensemble.members, outputs)
            ]
        with obs.span("camal.cam_normalization"):  # step 4
            cam = np.mean([normalize_cam(c) for c in raw_cams], axis=0)
            if cfg.cam_floor > 0.0:
                cam = np.where(cam >= cfg.cam_floor, cam, 0.0)
            if cfg.smooth_window > 1:
                cam = _moving_average(cam, cfg.smooth_window)
        with obs.span("camal.mask"):  # step 5a: CAM ∘ x
            masked = cam * x[:, 0, :]
        with obs.span("camal.sigmoid"):  # step 5b
            attention = F.sigmoid(masked)
        with obs.span("camal.threshold"):  # step 6
            status = (attention > cfg.status_threshold).astype(np.float64)
            status[~detected] = 0.0  # no detection → no localization
            if cfg.min_on_duration > 1:
                status = remove_short_runs(status, cfg.min_on_duration)
        with obs.span("camal.member_probabilities"):
            uncertainty = np.std(list(member_probabilities.values()), axis=0)
        n = len(probabilities)
        return CamALResult(
            probabilities=probabilities,
            detected=detected,
            cam=cam,
            attention=attention,
            status=status,
            member_probabilities=member_probabilities,
            uncertainty=uncertainty,
            repaired=np.zeros(n, dtype=bool),
            degraded=np.zeros(n, dtype=bool),
        )

    def predict_status(self, x: np.ndarray) -> np.ndarray:
        """Binary per-timestep status ``(N, T)`` (baseline-compatible API)."""
        return self.localize(x).status

    # -- caching support ------------------------------------------------------

    def fingerprint(self) -> tuple:
        """Hashable identity for result caching.

        Combines the ensemble's process-unique
        :attr:`~repro.models.ResNetEnsemble.serial` with the
        architecture and inference config, so cached results invalidate
        when a model is swapped (retrain, :meth:`calibrate`, pruning,
        ``load_state_dict``) — not merely when the window changes — and
        a model built after another was garbage-collected never aliases
        its keys. In-place weight mutation of the *same* ensemble
        (training its members) is not detectable; callers retraining in
        place must clear their caches (see DESIGN.md §7 "Inference
        path").
        """
        return (
            self.ensemble.serial,
            self.ensemble.kernel_sizes,
            self.ensemble.n_filters,
            self.config,
        )

    # -- threshold calibration ----------------------------------------------

    def calibrate(
        self,
        windows: WindowSet,
        thresholds: np.ndarray | None = None,
    ) -> "CamAL":
        """Pick the detection threshold on validation windows.

        Sweeps candidate thresholds and keeps the one maximizing
        balanced accuracy of window-level detection (robust to the
        OFF-heavy class skew; ties break toward 0.5). Returns a new
        :class:`CamAL` sharing the ensemble and scaler — the paper's
        fixed 0.5 stays available on the original instance.
        """
        if thresholds is None:
            thresholds = np.linspace(0.1, 0.9, 17)
        probabilities = self.detect(windows.x)
        truth = windows.y_weak > 0.5
        positives = max(int(truth.sum()), 1)
        negatives = max(int((~truth).sum()), 1)
        best = (-1.0, 1.0)  # (score, |threshold - 0.5|)
        best_threshold = self.config.detection_threshold
        for threshold in np.asarray(thresholds, dtype=np.float64):
            if not 0.0 < threshold < 1.0:
                raise ValueError(f"threshold {threshold} outside (0, 1)")
            predicted = probabilities > threshold
            recall = np.sum(predicted & truth) / positives
            specificity = np.sum(~predicted & ~truth) / negatives
            score = 0.5 * (recall + specificity)
            key = (score, -abs(threshold - 0.5))
            if key > best:
                best = key
                best_threshold = float(threshold)
        config = CamALConfig(
            detection_threshold=best_threshold,
            status_threshold=self.config.status_threshold,
            cam_floor=self.config.cam_floor,
            smooth_window=self.config.smooth_window,
            min_on_duration=self.config.min_on_duration,
        )
        return CamAL(self.ensemble, self.scaler, config)

    def __repr__(self) -> str:
        kernels = ",".join(str(k) for k in self.ensemble.kernel_sizes)
        return (
            f"CamAL(members={len(self.ensemble)}, kernels=[{kernels}], "
            f"detection_threshold={self.config.detection_threshold})"
        )

    # -- watt-space conveniences (used by the app) -----------------------

    def localize_watts(
        self,
        watts: np.ndarray,
        validate: bool = True,
        max_gap: int = 5,
        appliance: str | None = None,
    ) -> CamALResult:
        """Accept raw watt windows ``(N, T)``; standardizes internally.

        With ``validate`` (the default) every window first runs through
        :func:`repro.robust.validate_window`: short NaN gaps are
        interpolated and negatives clipped (``result.repaired`` flags
        those rows), while windows the repair budget cannot fix are
        **degraded** instead of crashing or poisoning the batch — their
        row comes back with ``probability`` NaN, ``detected`` False and
        an all-OFF ``status``, and ``result.degraded`` marks them. Clean
        batches short-circuit to the exact pre-validation numerics.

        ``appliance`` attributes the call for quality monitoring: when a
        :class:`repro.quality.QualityMonitor` is installed, attributed
        batches feed its live distribution (:func:`repro.quality.observe`).
        Unattributed calls (the default, and what reference-profile and
        canary construction use) are never counted as live traffic.
        """
        watts = np.asarray(watts, dtype=np.float64)
        if watts.ndim != 2:
            raise ValueError(f"expected (N, T) watts, got shape {watts.shape}")
        result = self._localize_watts(watts, validate, max_gap)
        quality.observe(appliance, watts, result)
        return result

    def _localize_watts(
        self,
        watts: np.ndarray,
        validate: bool,
        max_gap: int,
    ) -> CamALResult:
        if not validate:
            return self.localize(self.scaler.transform(watts)[:, None, :])
        rows = []
        reports = []
        for row in watts:
            repaired_row, report = validate_window(row, max_gap=max_gap)
            reports.append(report)
            rows.append(row if repaired_row is None else repaired_row)
        usable = np.array([r.usable for r in reports], dtype=bool)
        repaired = np.array(
            [r.verdict is Verdict.REPAIRED for r in reports], dtype=bool
        )
        if usable.all() and not repaired.any():  # clean batch — fast exit
            return self.localize(self.scaler.transform(watts)[:, None, :])
        self._record_robust(repaired, usable)
        if usable.all():
            cleaned = np.stack(rows)
            result = self.localize(self.scaler.transform(cleaned)[:, None, :])
            result.repaired = repaired
            return result
        return self._localize_partial(watts, rows, usable, repaired)

    def _localize_partial(
        self,
        watts: np.ndarray,
        rows: list,
        usable: np.ndarray,
        repaired: np.ndarray,
    ) -> CamALResult:
        """Run the model on the usable rows only; scatter into a
        full-size result with degraded rows left at their defaults."""
        n, t = watts.shape
        index = np.flatnonzero(usable)
        if index.size:
            cleaned = np.stack([rows[i] for i in index])
            core = self.localize(self.scaler.transform(cleaned)[:, None, :])
            member_keys = list(core.member_probabilities)
        else:
            core = None
            member_keys = list(range(len(self.ensemble)))
        probabilities = np.full(n, np.nan)
        detected = np.zeros(n, dtype=bool)
        cam = np.zeros((n, t))
        attention = np.full((n, t), np.nan)
        status = np.zeros((n, t))
        member_probabilities = {k: np.full(n, np.nan) for k in member_keys}
        uncertainty = np.full(n, np.nan)
        if core is not None:
            probabilities[index] = core.probabilities
            detected[index] = core.detected
            cam[index] = core.cam
            attention[index] = core.attention
            status[index] = core.status
            for key in member_keys:
                member_probabilities[key][index] = core.member_probabilities[key]
            uncertainty[index] = core.uncertainty
        return CamALResult(
            probabilities=probabilities,
            detected=detected,
            cam=cam,
            attention=attention,
            status=status,
            member_probabilities=member_probabilities,
            uncertainty=uncertainty,
            repaired=repaired,
            degraded=~usable,
        )

    def _record_robust(self, repaired: np.ndarray, usable: np.ndarray) -> None:
        if not obs.enabled():
            return
        registry = obs.registry
        if repaired.any():
            registry.counter(
                "robust.windows_repaired_total",
                help="inference windows repaired before localization",
            ).inc(int(repaired.sum()))
        if (~usable).any():
            registry.counter(
                "robust.windows_degraded_total",
                help="inference windows degraded to no-localization",
            ).inc(int((~usable).sum()))
