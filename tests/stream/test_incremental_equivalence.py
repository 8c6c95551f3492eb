"""Bit-identity of incremental localization: sliding == cold, always.

The streaming layer (DESIGN.md §13) splices cached per-member feature
maps and re-sweeps only the receptive-field tail on each append — and
the whole design rests on one invariant, the streaming twin of the
batch-equivalence contract (``tests/core/test_batch_equivalence.py``):
after **any** sequence of appends, ``SlidingCamAL.localize()`` is
**bit-for-bit identical** to a cold ``CamAL.localize_watts`` over the
same window. Not "allclose" — identical, on every ``CamALResult``
field including validation verdicts: serve-layer cache values and
detection verdicts must not depend on whether a window arrived in one
batch or trickled in sample by sample.

What makes this non-trivial (each hazard has a test here):

* append chunks land at arbitrary offsets relative to the fixed
  ``TIME_TILE`` GEMM tiling, so splice boundaries must re-sweep the
  cached sweep's final partial tile;
* window slides move the left zero-padding, invalidating head
  features that *look* unchanged;
* NaN repair is context-dependent — a trailing gap repaired by
  edge-fill changes its repaired values once later appends make it an
  interior gap (interpolation), which the byte-level prefix diff must
  catch;
* degraded windows must mirror the PR 4 partial-result path without
  corrupting the feature cache for the next usable sync.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CamAL, CamALResult
from repro.datasets import Standardizer
from repro.models import ResNetEnsemble
from repro.nn.conv import TIME_TILE
from repro.stream import LiveStore, SlidingCamAL, receptive_halo
from tests.reference import reference_localize_watts


def make_camal() -> CamAL:
    ens = ResNetEnsemble((3, 5), n_filters=(2, 4, 4), seed=0)
    ens.eval()
    return CamAL(ens, Standardizer(mean=300.0, std=400.0))


@pytest.fixture(scope="module")
def camal() -> CamAL:
    return make_camal()


def feed(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    watts = rng.uniform(0, 3000, size=n)
    watts[: n // 4] = rng.uniform(0, 120, size=n // 4)
    return watts


def assert_identical(stream: CamALResult, cold: CamALResult):
    """Every field of the incremental result equals the cold sweep's,
    bitwise — the same field set the batch harness pins."""
    for name in (
        "probabilities",
        "detected",
        "cam",
        "attention",
        "status",
        "uncertainty",
        "repaired",
        "degraded",
    ):
        np.testing.assert_array_equal(
            getattr(stream, name),
            getattr(cold, name),
            err_msg=f"{name} differs from the cold full-window sweep",
        )
    assert stream.member_probabilities.keys() == (
        cold.member_probabilities.keys()
    )
    for member, probas in cold.member_probabilities.items():
        np.testing.assert_array_equal(
            stream.member_probabilities[member],
            probas,
            err_msg=f"member {member} probability differs",
        )


def drive_and_compare(model, live, store, chunks, raw, pos, cold_model=None):
    """Append each chunk, localize incrementally, compare to cold."""
    cold_model = cold_model or model
    for chunk in chunks:
        store.append(raw[pos : pos + chunk])
        pos += chunk
        loc = live.localize()
        assert loc.end == store.total
        watts = store.read(loc.start, loc.end - loc.start)
        assert_identical(loc.result, cold_model.localize_watts(watts[None]))
    return pos


@given(
    window=st.sampled_from([64, 96, 130]),
    chunks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 50),
)
@settings(max_examples=12, deadline=None)
def test_any_append_sequence_matches_cold_localize(window, chunks, seed):
    """The headline: arbitrary chunking, growing then sliding window."""
    model = make_camal()
    raw = feed(window + sum(chunks), seed)
    store = LiveStore(capacity=window * 4, on_full="evict")
    live = SlidingCamAL(model, store, window=window)
    store.append(raw[:window])
    loc = live.localize()  # cold first sync
    assert_identical(loc.result, model.localize_watts(raw[None, :window]))
    drive_and_compare(model, live, store, chunks, raw, window)


def test_chunks_straddling_tile_boundaries(camal):
    """Deterministic chunk sizes chosen to land appends on, just before,
    and just after every TIME_TILE boundary relation."""
    window = 96
    chunks = [1, TIME_TILE - 1, TIME_TILE, TIME_TILE + 1, 5, 2 * TIME_TILE, 3]
    raw = feed(window + sum(chunks), seed=7)
    store = LiveStore(capacity=window * 4, on_full="evict")
    live = SlidingCamAL(camal, store, window=window)
    store.append(raw[:window])
    live.localize()
    drive_and_compare(camal, live, store, chunks, raw, window)
    # The incremental path genuinely reused work while doing it.
    assert live.reused_total > 0
    assert 0.0 < live.reuse_ratio <= 1.0


def test_sliding_over_eviction_stays_identical(camal):
    """Long feed, tight ring: the window slides while the ring evicts
    underneath it — absolute addressing keeps the splices exact."""
    window = 64
    store = LiveStore(capacity=window + 40, on_full="evict")
    live = SlidingCamAL(camal, store, window=window, slack=TIME_TILE)
    raw = feed(window + 300, seed=11)
    store.append(raw[:window])
    live.localize()
    pos = window
    while pos < raw.size:
        chunk = min(17, raw.size - pos)
        store.append(raw[pos : pos + chunk])
        pos += chunk
        loc = live.localize()
        assert loc.start >= store.first
        watts = store.read(loc.start, loc.end - loc.start)
        assert_identical(loc.result, camal.localize_watts(watts[None]))


def test_matches_sequential_and_legacy_pipeline():
    """The cold reference is itself path-invariant (the batch harness),
    so the stream result must equal *every* cold path: the sequential
    sweep and the plain reference (one backbone pass per consumer, the
    former legacy pipeline)."""
    model = make_camal()
    window = 96
    chunks = [9, 30, 33, 14]
    raw = feed(window + sum(chunks), seed=13)
    store = LiveStore(capacity=window * 4, on_full="evict")
    live = SlidingCamAL(model, store, window=window)
    store.append(raw[:window])
    live.localize()
    pos = window
    for chunk in chunks:
        store.append(raw[pos : pos + chunk])
        pos += chunk
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)[None]
        assert_identical(loc.result, model.localize_watts(watts))
        assert_identical(loc.result, reference_localize_watts(model, watts))


class TestNanTaxonomy:
    """PR 4 verdicts through the incremental path: repaired, degraded,
    and the repair-drift hazard in between."""

    def test_short_gap_is_repaired_identically(self, camal):
        window = 96
        raw = feed(window + 20, seed=17)
        raw[window + 4 : window + 7] = np.nan  # interior after next append
        store = LiveStore(capacity=window * 4, on_full="evict")
        # slack=0 keeps the analyzed window near ``window`` samples, so
        # the 3-NaN gap stays under the degraded fraction threshold and
        # the verdicts below are the ones the test names.
        live = SlidingCamAL(camal, store, window=window, slack=0)
        store.append(raw[:window])
        live.localize()
        store.append(raw[window : window + 20])
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        cold = camal.localize_watts(watts[None])
        assert cold.repaired[0] and not cold.degraded[0]
        assert_identical(loc.result, cold)

    def test_trailing_gap_repair_drift_is_recomputed(self, camal):
        """A gap at the live tail is edge-filled; the next append turns
        it into an interior gap and the repaired values *change*. The
        prefix diff runs on repaired bytes, so the drifted region must
        recompute — sliding stays identical through the transition."""
        window = 96
        raw = feed(window + 40, seed=19)
        store = LiveStore(capacity=window * 4, on_full="evict")
        live = SlidingCamAL(camal, store, window=window, slack=0)
        store.append(raw[:window])
        live.localize()
        # Append ends in NaN: the gap touches the window's right edge.
        tail = raw[window : window + 12].copy()
        tail[-3:] = np.nan
        store.append(tail)
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        cold = camal.localize_watts(watts[None])
        assert cold.repaired[0]
        assert_identical(loc.result, cold)
        # Clean samples arrive; the same gap is now interior and its
        # repaired values differ from the edge-fill the cache saw.
        store.append(raw[window + 12 : window + 40])
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        assert_identical(loc.result, camal.localize_watts(watts[None]))

    def test_degraded_window_mirrors_partial_then_recovers(self, camal):
        """An unusable window answers through the degraded branch
        bit-identically, without corrupting streaming state: once the
        burst slides out, results stay identical and the re-established
        feature cache serves reuse again."""
        window = 96
        raw = feed(window + 130, seed=23)
        store = LiveStore(capacity=window * 8, on_full="evict")
        live = SlidingCamAL(camal, store, window=window, slack=0)
        store.append(raw[:window])
        live.localize()
        store.append(np.full(30, np.nan))  # 30-NaN run >> max_gap
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        cold = camal.localize_watts(watts[None])
        assert cold.degraded[0]
        assert np.isnan(cold.probabilities[0])
        assert_identical(loc.result, cold)
        assert loc.reused == 0 and loc.computed == 0
        # Enough clean samples to slide the burst out of the window.
        store.append(raw[window : window + 120])
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        cold = camal.localize_watts(watts[None])
        assert not cold.degraded[0]
        assert_identical(loc.result, cold)
        # The next append is incremental again off the recovery sync.
        reused_before = live.reused_total
        store.append(raw[window + 120 : window + 130])
        loc = live.localize()
        watts = store.read(loc.start, loc.end - loc.start)
        assert_identical(loc.result, camal.localize_watts(watts[None]))
        assert live.reused_total > reused_before


class TestGuards:
    def test_training_mode_ensemble_is_rejected(self):
        ens = ResNetEnsemble((3, 5), n_filters=(2, 4, 4), seed=0)  # train
        model = CamAL(ens, Standardizer(mean=300.0, std=400.0))
        with pytest.raises(ValueError, match="eval-mode"):
            SlidingCamAL(model, LiveStore(capacity=256))

    def test_window_below_tile_is_rejected(self, camal):
        with pytest.raises(ValueError, match="TIME_TILE"):
            SlidingCamAL(camal, LiveStore(capacity=256), window=TIME_TILE - 1)

    def test_negative_slack_is_rejected(self, camal):
        with pytest.raises(ValueError, match="slack"):
            SlidingCamAL(camal, LiveStore(capacity=256), slack=-1)

    def test_receptive_halo_rejects_strided_convs(self):
        from repro.nn import Conv1d

        halo = receptive_halo(Conv1d(1, 2, kernel_size=5))
        assert halo == (2, 2)
        with pytest.raises(ValueError, match="stride-1"):
            receptive_halo(Conv1d(1, 2, kernel_size=4, stride=2, padding=1))
