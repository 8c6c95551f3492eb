"""Drift detection: PSI and KS over profile distributions.

Compares a live :class:`~repro.quality.profiles.ApplianceProfile`
against a frozen reference profile, feature by feature:

* **PSI** (population stability index) over the shared fixed buckets —
  the standard scorecard-monitoring statistic. Conventional reading:
  below 0.1 stable, 0.1–0.25 moderate shift (warn), above 0.25 major
  shift (alert). Bucket counts are Jeffreys-smoothed so sparse buckets
  do not blow the log up on small samples.
* **Two-sample KS** on the binned CDFs with the asymptotic
  Kolmogorov p-value. KS is sensitive on large samples even for tiny
  effects, so significance alone only *escalates* a PSI warn to alert —
  it never fires on its own.

Scalar rates (detection rate, NaN rate, clip rate, degraded rate) are
compared as two-bucket Bernoulli distributions through the same PSI
machinery, so one threshold vocabulary covers everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import ApplianceProfile

__all__ = [
    "psi",
    "ks_statistic",
    "ks_pvalue",
    "severity",
    "FeatureDrift",
    "DriftReport",
    "DriftDetector",
]

#: Severity vocabulary shared by drift, canary, and alert layers.
LEVELS = ("ok", "warn", "alert")
_SEVERITY = {level: rank for rank, level in enumerate(LEVELS)}


def severity(level: str) -> int:
    """Rank of a severity level (``ok`` < ``warn`` < ``alert``)."""
    return _SEVERITY[level]


def psi(expected, actual, alpha: float = 0.5) -> float:
    """Population stability index between two aligned count vectors.

    ``expected``/``actual`` are per-bucket counts over the same edges.
    Returns 0.0 when either side is empty — no data is no evidence of
    drift. Both sides' bucket shares get the same additive floor,
    ``alpha * (1/n_expected + 1/n_actual)`` — the scale of the sampling
    noise in a share difference, so sparse buckets cannot dominate
    (with the classic tiny-epsilon-on-proportions trick, one window
    landing in a bucket the other side left empty contributes
    ~``ln(1/eps)``, and a handful of singletons can push a small clean
    sample past the alert threshold on binning noise alone). Because
    the floor is shared, one shape at two sample sizes scores exactly
    0; pseudo-counts added per *count* would smooth the smaller side
    harder and read its size as drift.
    """
    expected = np.asarray(expected, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if expected.shape != actual.shape:
        raise ValueError("PSI needs aligned bucket vectors")
    n_expected, n_actual = expected.sum(), actual.sum()
    if n_expected <= 0 or n_actual <= 0:
        return 0.0
    share = alpha * (1.0 / n_expected + 1.0 / n_actual)
    p = (expected / n_expected + share) / (1.0 + share * expected.size)
    q = (actual / n_actual + share) / (1.0 + share * actual.size)
    return float(np.sum((q - p) * np.log(q / p)))


def ks_statistic(expected, actual) -> float:
    """Two-sample KS statistic over binned counts (max CDF gap).

    Binned data can only under-estimate the true statistic, which makes
    the detector conservative — fine for monitoring.
    """
    expected = np.asarray(expected, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if expected.shape != actual.shape:
        raise ValueError("KS needs aligned bucket vectors")
    if expected.sum() <= 0 or actual.sum() <= 0:
        return 0.0
    cdf_e = np.cumsum(expected) / expected.sum()
    cdf_a = np.cumsum(actual) / actual.sum()
    return float(np.max(np.abs(cdf_e - cdf_a)))


def ks_pvalue(stat: float, n_expected: float, n_actual: float) -> float:
    """Asymptotic two-sample Kolmogorov p-value (Smirnov's formula with
    the small-sample correction; 1.0 when either sample is empty)."""
    if n_expected <= 0 or n_actual <= 0 or stat <= 0:
        return 1.0
    en = math.sqrt(n_expected * n_actual / (n_expected + n_actual))
    lam = (en + 0.12 + 0.11 / en) * stat
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-10:
            break
    return float(min(max(total, 0.0), 1.0))


@dataclass(frozen=True)
class FeatureDrift:
    """One feature's drift scores and verdict."""

    feature: str
    psi: float
    ks: float
    ks_p: float
    level: str  # ok | warn | alert
    reference_mean: float = float("nan")
    live_mean: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "psi": self.psi,
            "ks": self.ks,
            "ks_p": self.ks_p,
            "level": self.level,
            "reference_mean": self.reference_mean,
            "live_mean": self.live_mean,
        }


@dataclass
class DriftReport:
    """Per-appliance drift verdict across all tracked features."""

    appliance: str
    level: str  # ok | warn | alert
    features: list[FeatureDrift] = field(default_factory=list)
    n_reference: int = 0
    n_live: int = 0
    insufficient: bool = False  # too few live windows to judge

    def worst(self) -> FeatureDrift | None:
        if not self.features:
            return None
        return max(self.features, key=lambda f: (severity(f.level), f.psi))

    def to_dict(self) -> dict:
        return {
            "appliance": self.appliance,
            "level": self.level,
            "n_reference": self.n_reference,
            "n_live": self.n_live,
            "insufficient": self.insufficient,
            "features": [f.to_dict() for f in self.features],
        }


class DriftDetector:
    """PSI + KS comparison of live vs reference profiles.

    Parameters mirror the conventional PSI reading; ``ks_alpha`` is the
    significance that *escalates* a PSI warn to alert. ``min_windows``
    guards against judging a live window too small to bin meaningfully
    — below it the report is ``ok`` with ``insufficient=True``.
    """

    def __init__(
        self,
        psi_warn: float = 0.1,
        psi_alert: float = 0.25,
        ks_alpha: float = 0.01,
        min_windows: int = 16,
    ):
        if not 0.0 < psi_warn < psi_alert:
            raise ValueError("need 0 < psi_warn < psi_alert")
        if not 0.0 < ks_alpha < 1.0:
            raise ValueError("ks_alpha must be in (0, 1)")
        self.psi_warn = float(psi_warn)
        self.psi_alert = float(psi_alert)
        self.ks_alpha = float(ks_alpha)
        self.min_windows = int(min_windows)

    def _feature_level(self, psi_score: float, ks_p: float) -> str:
        if psi_score >= self.psi_alert:
            return "alert"
        if psi_score >= self.psi_warn:
            return "alert" if ks_p < self.ks_alpha else "warn"
        return "ok"

    def _distribution_features(
        self, reference: ApplianceProfile, live: ApplianceProfile
    ):
        for name in ("probability", "on_fraction", "power_mean"):
            ref_tracker = getattr(reference, name)
            live_tracker = getattr(live, name)
            yield name, ref_tracker.counts, live_tracker.counts, \
                ref_tracker.mean, live_tracker.mean

    def _rate_features(
        self, reference: ApplianceProfile, live: ApplianceProfile
    ):
        for name in ("detection_rate", "nan_rate", "clip_rate",
                     "degraded_rate"):
            ref_rate = getattr(reference, name)
            live_rate = getattr(live, name)
            ref_counts = _bernoulli_counts(ref_rate, reference.windows)
            live_counts = _bernoulli_counts(live_rate, live.windows)
            yield name, ref_counts, live_counts, ref_rate, live_rate

    def compare(
        self, reference: ApplianceProfile, live: ApplianceProfile
    ) -> DriftReport:
        """Score every feature and roll up the worst level."""
        report = DriftReport(
            appliance=live.appliance or reference.appliance,
            level="ok",
            n_reference=reference.windows,
            n_live=live.windows,
        )
        if live.windows < self.min_windows:
            report.insufficient = True
            return report
        features = list(self._distribution_features(reference, live))
        features.extend(self._rate_features(reference, live))
        worst = 0
        for name, ref_counts, live_counts, ref_mean, live_mean in features:
            psi_score = psi(ref_counts, live_counts)
            ks_score = ks_statistic(ref_counts, live_counts)
            p = ks_pvalue(
                ks_score, float(np.sum(ref_counts)), float(np.sum(live_counts))
            )
            level = self._feature_level(psi_score, p)
            worst = max(worst, severity(level))
            report.features.append(
                FeatureDrift(
                    feature=name,
                    psi=psi_score,
                    ks=ks_score,
                    ks_p=p,
                    level=level,
                    reference_mean=float(ref_mean),
                    live_mean=float(live_mean),
                )
            )
        report.level = LEVELS[worst]
        return report


def _bernoulli_counts(rate: float, n: int) -> np.ndarray:
    """A scalar rate as a two-bucket count vector (hit, miss)."""
    if n <= 0 or not math.isfinite(rate):
        return np.zeros(2)
    hits = rate * n
    return np.asarray([hits, n - hits], dtype=np.float64)
