"""Bit-identity of batched sweeps: one (B, L) call == B solo calls.

The serve-layer micro-batcher (DESIGN.md §12) stacks concurrent
requests into one ensemble sweep and scatters rows back to callers, so
the whole design rests on one invariant: every row of a batched
``localize_watts`` / ``detect`` is **bit-for-bit identical** to running
that window alone. Not "allclose" — identical: cache keys, stored cache
values, and verdicts must not depend on who you happened to share a
batch with.

The numeric hazards these tests pin down (all fixed in ``repro.nn``):

* BLAS GEMMs pick different kernels for different M dimensions, so any
  lowering that folds the batch axis into a matmul dimension drifts at
  the ULP level — ``Conv1d``/``Linear`` now use per-window contractions
  whose GEMM shapes are independent of N;
* unoptimized einsum is memory-layout-sensitive, so inputs are
  normalized to C-contiguous first (``GlobalAvgPool1d`` returns a
  reduce-transposed view otherwise).

Ensembles are put in **eval mode** throughout, as every production path
does: a training-mode BatchNorm uses batch statistics and is
*semantically* batch-dependent — no layout fix can (or should) make
that invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CamAL, CamALResult
from repro.core import camal as camal_module
from repro.datasets import Standardizer
from repro.models import ResNetEnsemble
from tests.reference import reference_localize_watts


def make_camal() -> CamAL:
    ens = ResNetEnsemble((3, 5), n_filters=(2, 4, 4), seed=0)
    ens.eval()
    return CamAL(ens, Standardizer(mean=300.0, std=400.0))


@pytest.fixture(scope="module")
def camal() -> CamAL:
    return make_camal()


def windows(batch: int, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    watts = rng.uniform(0, 3000, size=(batch, length))
    watts[:, : length // 3] = rng.uniform(0, 120, size=(batch, length // 3))
    return watts


def assert_rows_identical(batched: CamALResult, solo: CamALResult, row: int):
    """Row ``row`` of the batched result equals the solo result, bitwise."""
    pairs = {
        "probabilities": (batched.probabilities[row], solo.probabilities[0]),
        "detected": (batched.detected[row], solo.detected[0]),
        "cam": (batched.cam[row], solo.cam[0]),
        "attention": (batched.attention[row], solo.attention[0]),
        "status": (batched.status[row], solo.status[0]),
        "uncertainty": (batched.uncertainty[row], solo.uncertainty[0]),
        "repaired": (batched.repaired[row], solo.repaired[0]),
        "degraded": (batched.degraded[row], solo.degraded[0]),
    }
    for name, (got, want) in pairs.items():
        np.testing.assert_array_equal(
            got, want, err_msg=f"{name} row {row} differs from solo sweep"
        )
    assert batched.member_probabilities.keys() == (
        solo.member_probabilities.keys()
    )
    for member, probas in solo.member_probabilities.items():
        np.testing.assert_array_equal(
            batched.member_probabilities[member][row],
            probas[0],
            err_msg=f"member {member} proba row {row} differs",
        )


@given(
    batch=st.integers(2, 7),
    length=st.sampled_from([33, 64, 100, 127]),
    seed=st.integers(0, 50),
)
@settings(max_examples=12, deadline=None)
def test_batched_sweep_is_bitwise_identical_to_solo_sweeps(
    batch, length, seed
):
    camal = make_camal()
    watts = windows(batch, length, seed)
    batched = camal.localize_watts(watts)
    for row in range(batch):
        solo = camal.localize_watts(watts[row : row + 1])
        assert_rows_identical(batched, solo, row)


def test_mixed_clean_repaired_degraded_rows_stay_identical(camal):
    """Validation verdicts and numerics are per-row, not per-batch."""
    watts = windows(4, 96, seed=3)
    watts[1, 10:13] = np.nan          # short gap -> repaired
    watts[2, 5:80] = np.nan           # beyond repair -> degraded
    watts[3, 40] = -250.0             # negative -> clipped, repaired
    batched = camal.localize_watts(watts)
    assert batched.repaired.tolist() == [False, True, False, True]
    assert batched.degraded.tolist() == [False, False, True, False]
    for row in range(4):
        solo = camal.localize_watts(watts[row : row + 1])
        assert_rows_identical(batched, solo, row)
    # The degraded row is inert: NaN probability, nothing detected.
    assert np.isnan(batched.probabilities[2])
    assert not batched.detected[2]


def test_detect_matches_row_by_row(camal):
    # detect() takes standardized (N, 1, T) input.
    x = ((windows(5, 64, seed=9) - 300.0) / 400.0)[:, None, :]
    batched = camal.detect(x)
    for row in range(5):
        np.testing.assert_array_equal(
            batched[row], camal.detect(x[row : row + 1])[0]
        )


def test_chunked_path_is_identical_to_unchunked(monkeypatch):
    """The engine's internal chunking must not perturb rows either."""
    watts = windows(7, 64, seed=11)
    whole = make_camal().localize_watts(watts)
    monkeypatch.setattr(camal_module, "CHUNK_SIZE", 3)
    chunked = make_camal().localize_watts(watts)
    for row in range(7):
        assert_rows_identical(chunked, whole.row(row), row)


def test_legacy_path_rows_are_batch_invariant():
    """The plain reference (the former legacy pipeline) — same contract."""
    model = make_camal()
    watts = windows(3, 49, seed=17)
    batched = reference_localize_watts(model, watts)
    swept = model.localize_watts(watts)
    for row in range(3):
        solo = reference_localize_watts(model, watts[row : row + 1])
        assert_rows_identical(batched, solo, row)
        assert_rows_identical(swept, solo, row)


# -- row()/split(): the scatter primitive --------------------------------


def test_row_extracts_single_window_views_as_copies(camal):
    watts = windows(3, 64, seed=21)
    result = camal.localize_watts(watts)
    middle = result.row(1)
    assert middle.probabilities.shape == (1,)
    assert middle.cam.shape == (1, 64)
    assert_rows_identical(result, middle, 1)
    # Copies, not views: mutating the row cannot corrupt cached batches.
    middle.cam[0, 0] = 123.0
    assert result.cam[1, 0] != 123.0


def test_row_supports_negative_index(camal):
    watts = windows(3, 64, seed=22)
    result = camal.localize_watts(watts)
    np.testing.assert_array_equal(
        result.row(-1).probabilities, result.row(2).probabilities
    )


def test_row_rejects_out_of_range(camal):
    result = camal.localize_watts(windows(2, 64, seed=23))
    with pytest.raises(IndexError):
        result.row(2)
    with pytest.raises(IndexError):
        result.row(-3)


def test_split_round_trips_the_batch(camal):
    watts = windows(4, 64, seed=24)
    result = camal.localize_watts(watts)
    rows = result.split()
    assert len(rows) == 4
    for i, part in enumerate(rows):
        assert_rows_identical(result, part, i)
