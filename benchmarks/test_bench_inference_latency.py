"""PERF — interactive-latency requirement of the demo system.

DeviceScope is an interactive GUI: selecting an appliance must return a
localization for the current window quickly. This bench measures true
CamAL inference latency (detection + CAM + attention) for the three GUI
window lengths with pytest-benchmark's real timing loop (these runs are
cheap, unlike the training benches), and persists a per-stage breakdown
of the 1-day window (``inference_stage_breakdown.json``).
"""

import json

import numpy as np
import pytest

from repro.core import CamAL
from repro.datasets import Standardizer
from repro.models import ResNetEnsemble

from conftest import BENCH_FILTERS

#: The GUI's three window tiles (1-minute sampling).
WINDOWS = (("6h", 360), ("12h", 720), ("1day", 1440))


@pytest.fixture(scope="module")
def ensemble():
    ensemble = ResNetEnsemble((5, 7, 9, 15), n_filters=BENCH_FILTERS, seed=0)
    ensemble.eval()
    return ensemble


@pytest.fixture(scope="module")
def model(ensemble):
    return CamAL(ensemble, Standardizer(mean=300.0, std=400.0))


@pytest.mark.parametrize("label,samples", WINDOWS)
def test_window_localization_latency(benchmark, model, label, samples):
    rng = np.random.default_rng(0)
    watts = rng.uniform(0, 3000, size=(1, samples))
    result = benchmark(lambda: model.localize_watts(watts))
    assert result.status.shape == (1, samples)
    # Interactivity: well under a second per window on a laptop.
    assert benchmark.stats.stats.mean < 1.0


def test_batch_of_windows_latency(benchmark, model):
    """The Playground's per-device view localizes a batch at once."""
    rng = np.random.default_rng(1)
    watts = rng.uniform(0, 3000, size=(16, 360))
    result = benchmark(lambda: model.localize_watts(watts))
    assert result.status.shape == (16, 360)


CAMAL_STAGES = (
    "camal.ensemble_forward",
    "camal.cam_extraction",
    "camal.cam_normalization",
    "camal.mask",
    "camal.sigmoid",
    "camal.threshold",
)


def test_stage_breakdown_persisted(model, results_dir):
    """Where does the 1-day-window latency go, stage by stage?

    Not a pytest-benchmark case: the tracer already times each of the
    six CamAL stages, so one traced run yields the breakdown. Persists
    ``results/inference_stage_breakdown.json`` next to the other bench
    outputs so the latency numbers above can be attributed.
    """
    from repro import obs

    rng = np.random.default_rng(2)
    watts = rng.uniform(0, 3000, size=(1, 1440))
    obs.enable()
    obs.reset()
    try:
        model.localize_watts(watts)
        root = obs.tracer.find("camal.localize")
        assert root is not None
        stages = {child.name: child.duration_s for child in root.children}
        assert set(CAMAL_STAGES) <= set(stages)
        assert all(seconds >= 0.0 for seconds in stages.values())
        # The ensemble forward pass dominates a ResNet-ensemble localize.
        assert stages["camal.ensemble_forward"] == max(
            stages[name] for name in CAMAL_STAGES
        )
        breakdown = {
            "window": "1day",
            "samples": 1440,
            "members": len(model.ensemble),
            "total_s": root.duration_s,
            "stages": [
                {
                    "stage": child.name,
                    "seconds": child.duration_s,
                    "share": child.duration_s / max(root.duration_s, 1e-12),
                }
                for child in root.children
            ],
        }
        path = results_dir / "inference_stage_breakdown.json"
        path.write_text(json.dumps(breakdown, indent=2))
        assert json.loads(path.read_text())["stages"]
    finally:
        obs.disable()
        obs.reset()
