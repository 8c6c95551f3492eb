"""Tests for the ResNet ensemble and CAM normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CamAL
from repro.datasets import Standardizer
from repro.models import DEFAULT_KERNEL_SIZES, ResNetEnsemble, normalize_cam


def small_ensemble(kernels=(3, 5), seed=0):
    return ResNetEnsemble(kernels, n_filters=(4, 8, 8), seed=seed)


def test_default_kernel_sizes_match_paper():
    assert DEFAULT_KERNEL_SIZES == (5, 7, 9, 15)


def test_member_count_and_kernels():
    ens = small_ensemble((5, 7, 9))
    assert len(ens) == 3
    assert [m.kernel_size for m in ens] == [5, 7, 9]


def test_predict_proba_is_mean_of_members():
    ens = small_ensemble()
    x = np.random.default_rng(0).normal(size=(4, 1, 32))
    expected = np.mean([m.predict_proba(x) for m in ens.members], axis=0)
    np.testing.assert_allclose(ens.predict_proba(x), expected)


def test_member_probabilities_keys():
    ens = small_ensemble((3, 5, 7))
    x = np.random.default_rng(1).normal(size=(2, 1, 32))
    probas = CamAL(ens, Standardizer()).localize(x).member_probabilities
    assert set(probas) == {0, 1, 2}
    assert all(p.shape == (2,) for p in probas.values())


def test_result_cam_in_unit_interval():
    ens = small_ensemble()
    x = np.random.default_rng(2).normal(size=(3, 1, 40))
    cams = CamAL(ens, Standardizer()).localize(x).cam
    assert cams.shape == (3, 40)
    assert cams.min() >= 0.0
    assert cams.max() <= 1.0


def test_normalize_cam_minmax():
    cam = np.array([[1.0, 3.0, 2.0]])
    out = normalize_cam(cam)
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.5]])


def test_normalize_cam_constant_maps_to_zero():
    out = normalize_cam(np.full((2, 5), 7.0))
    np.testing.assert_array_equal(out, 0.0)


def test_normalize_cam_rejects_1d():
    with pytest.raises(ValueError):
        normalize_cam(np.zeros(5))


@given(
    shift=st.floats(-100, 100, allow_nan=False),
    scale=st.floats(0.1, 50, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_normalize_cam_is_shift_scale_invariant(shift, scale):
    rng = np.random.default_rng(0)
    cam = rng.normal(size=(2, 12))
    base = normalize_cam(cam)
    transformed = normalize_cam(cam * scale + shift)
    np.testing.assert_allclose(base, transformed, atol=1e-9)


def test_select_best_keeps_top_members():
    ens = small_ensemble((3, 5, 7), seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 1, 32))
    y = rng.integers(0, 2, size=30).astype(float)
    pruned = ens.select_best(x, y, top_n=2)
    assert len(pruned) == 2
    # Pruned members are the originals, not copies.
    kept = {id(m) for m in pruned.members}
    assert kept.issubset({id(m) for m in ens.members})


def test_select_best_validates_top_n():
    ens = small_ensemble()
    x = np.zeros((4, 1, 32))
    y = np.zeros(4)
    with pytest.raises(ValueError):
        ens.select_best(x, y, top_n=0)
    with pytest.raises(ValueError):
        ens.select_best(x, y, top_n=5)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        ResNetEnsemble(())


def test_ensemble_forward_is_not_defined():
    with pytest.raises(NotImplementedError):
        small_ensemble()(np.zeros((1, 1, 32)))


def test_members_have_distinct_initializations():
    ens = small_ensemble((5, 5))  # same kernel, different seeds
    w0 = ens.members[0].fc.weight.data
    w1 = ens.members[1].fc.weight.data
    assert not np.allclose(w0, w1)

