"""The telemetry-overhead gate's decision (``benchmarks/obs_overhead.py``)
on synthetic readings: a uniform enabled-arm overhead above the budget
fails, none passes."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def gate():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import common
        import obs_overhead
    finally:
        sys.path.remove(str(BENCHMARKS))
    return obs_overhead, common


def synthetic_readings(block, overhead, rounds=45, seed=0):
    """Per-call CPU seconds with a host speed that wanders from round to
    round (both blocks of a round share it), 2% per-call noise, and the
    enabled arm ``overhead`` slower."""
    rng = np.random.default_rng(seed)
    speed = np.exp(np.cumsum(rng.normal(0.0, 0.05, rounds)))
    readings = {}
    for arm, factor in (("disabled", 1.0), ("enabled", 1.0 + overhead)):
        calls = 0.040 * factor * np.repeat(speed, block)
        calls *= rng.normal(1.0, 0.02, calls.size)
        readings[arm] = {"cpu": list(calls), "wall": list(calls)}
    return readings


@pytest.mark.parametrize("overhead, status", [(0.08, 1), (0.0, 0)])
def test_gate_decides_on_paired_overhead(gate, tmp_path, overhead, status):
    obs_overhead, common = gate
    readings = synthetic_readings(obs_overhead.BLOCK, overhead)
    cpu = obs_overhead.summarize(readings, "cpu")
    assert cpu["paired_overhead_fraction"] == pytest.approx(overhead, abs=0.01)
    out = tmp_path / "BENCH_obs_overhead.json"
    checks = obs_overhead.gate_checks(cpu, tolerance=0.05)
    assert common.persist_then_decide(cpu, out, checks) == status
    assert out.exists()  # written whichever way the gate goes

