"""Drift detector properties: null stability and monotone response."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quality import (
    ApplianceProfile,
    DriftDetector,
    WindowObservation,
    ks_pvalue,
    ks_statistic,
    psi,
)

counts_strategy = st.lists(
    st.integers(min_value=0, max_value=500), min_size=2, max_size=12
)


def profile_from(probabilities, appliance="kettle", power=300.0):
    profile = ApplianceProfile(appliance)
    for p in probabilities:
        profile.observe(
            WindowObservation(
                probability=float(p),
                detected=bool(p > 0.5),
                on_fraction=float(p) * 0.5,
                power_mean=power,
                nan_fraction=0.0,
                clipped_fraction=0.0,
                repaired=False,
                degraded=False,
            )
        )
    return profile


class TestPsi:
    @settings(max_examples=100, deadline=None)
    @given(counts=counts_strategy)
    def test_identical_distributions_have_zero_psi(self, counts):
        assert psi(counts, counts) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(counts=counts_strategy, scale=st.integers(min_value=2, max_value=20))
    @example(counts=[0, 1], scale=3)
    @example(counts=[1, 0, 0], scale=3)
    def test_sample_size_scaling_is_not_drift(self, counts, scale):
        # Same shape at a different sample size must stay below warn.
        scaled = [c * scale for c in counts]
        assert psi(counts, scaled) < 0.1

    @settings(max_examples=100, deadline=None)
    @given(counts=counts_strategy)
    def test_non_negative(self, counts):
        other = list(reversed(counts))
        assert psi(counts, other) >= -1e-12

    def test_empty_side_is_zero(self):
        assert psi([0, 0], [1, 2]) == 0.0
        assert psi([1, 2], [0, 0]) == 0.0

    def test_monotone_in_shift_magnitude(self):
        """Moving more mass out of its home bucket raises PSI."""
        reference = [100, 100, 100]
        scores = [
            psi(reference, [100 - d, 100, 100 + d]) for d in (0, 20, 50, 90)
        ]
        assert scores == sorted(scores)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            psi([1, 2], [1, 2, 3])


class TestKs:
    @settings(max_examples=100, deadline=None)
    @given(counts=counts_strategy)
    def test_identical_distributions_not_significant(self, counts):
        stat = ks_statistic(counts, counts)
        assert stat == pytest.approx(0.0, abs=1e-12)
        n = sum(counts)
        assert ks_pvalue(stat, n, n) == pytest.approx(1.0)

    def test_disjoint_distributions_maximal(self):
        stat = ks_statistic([50, 0], [0, 50])
        assert stat == pytest.approx(1.0)
        assert ks_pvalue(stat, 50, 50) < 1e-6

    def test_monotone_in_shift(self):
        reference = [100, 100]
        stats = [
            ks_statistic(reference, [100 - d, 100 + d]) for d in (0, 30, 60, 90)
        ]
        assert stats == sorted(stats)

    def test_pvalue_empty_sample(self):
        assert ks_pvalue(0.5, 0, 10) == 1.0


class TestDriftDetector:
    def test_identical_profiles_ok(self, rng):
        probabilities = rng.uniform(0.2, 0.9, 64)
        reference = profile_from(probabilities)
        live = profile_from(probabilities)
        report = DriftDetector().compare(reference, live)
        assert report.level == "ok"
        assert not report.insufficient
        assert all(f.level == "ok" for f in report.features)

    def test_insufficient_live_windows(self, rng):
        reference = profile_from(rng.uniform(0.2, 0.9, 64))
        live = profile_from(rng.uniform(0.2, 0.9, 4))
        report = DriftDetector(min_windows=16).compare(reference, live)
        assert report.insufficient
        assert report.level == "ok"
        assert report.features == []

    def test_monotone_response_to_injected_shift(self, rng):
        """A growing location shift never lowers the drift verdict."""
        base = rng.uniform(0.3, 0.6, 128)
        reference = profile_from(base)
        detector = DriftDetector()
        severities = []
        psis = []
        for shift in (0.0, 0.1, 0.25, 0.4):
            live = profile_from(np.clip(base + shift, 0.0, 1.0))
            report = detector.compare(reference, live)
            feature = next(
                f for f in report.features if f.feature == "probability"
            )
            psis.append(feature.psi)
            severities.append(
                {"ok": 0, "warn": 1, "alert": 2}[feature.level]
            )
        assert psis == sorted(psis)
        assert severities == sorted(severities)
        assert severities[-1] == 2  # the big shift must alert

    def test_rate_feature_drift(self, rng):
        probabilities = rng.uniform(0.55, 0.9, 128)
        reference = profile_from(probabilities)
        live = profile_from(1.0 - probabilities)  # collapses detection
        report = DriftDetector().compare(reference, live)
        feature = next(
            f for f in report.features if f.feature == "detection_rate"
        )
        assert feature.level == "alert"

    def test_report_round_trips_to_dict(self, rng):
        probabilities = rng.uniform(0.2, 0.9, 32)
        report = DriftDetector().compare(
            profile_from(probabilities), profile_from(probabilities)
        )
        payload = report.to_dict()
        assert payload["appliance"] == "kettle"
        assert len(payload["features"]) == 7

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(psi_warn=0.3, psi_alert=0.2)
        with pytest.raises(ValueError):
            DriftDetector(ks_alpha=1.5)
