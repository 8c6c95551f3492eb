"""Equivalence suite: the single CamAL sweep vs the plain reference.

``CamAL`` derives detection probabilities, per-member probabilities and
CAMs from one backbone pass per member under ``inference_mode``; it must
be **bit-identical** to the plain reference in ``tests/reference.py``
(one backbone pass per consumer, the paper read literally) — same numpy
expressions, same reduction order. Chunked detection is no exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CamAL, CamALConfig
from repro.core import camal as camal_module
from repro.datasets import Standardizer
from repro.models import ResNetEnsemble
from repro.nn.module import Module
from tests.reference import reference_localize


def make_model(kernel_sizes=(3, 5), seed=0, config=None):
    """A CamAL over an untrained, eval'd ensemble."""
    ens = ResNetEnsemble(kernel_sizes, n_filters=(4, 8, 8), seed=seed)
    ens.eval()
    return CamAL(ens, Standardizer(), config)


def windows(n, t, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, t))


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    np.testing.assert_array_equal(a.detected, b.detected)
    np.testing.assert_array_equal(a.cam, b.cam)
    np.testing.assert_array_equal(a.attention, b.attention)
    np.testing.assert_array_equal(a.status, b.status)
    np.testing.assert_array_equal(a.uncertainty, b.uncertainty)
    assert set(a.member_probabilities) == set(b.member_probabilities)
    for key in a.member_probabilities:
        np.testing.assert_array_equal(
            a.member_probabilities[key], b.member_probabilities[key]
        )


@pytest.mark.parametrize("kernel_sizes", [(3,), (5,), (3, 5, 7, 9)])
@pytest.mark.parametrize("length", [33, 64])
def test_localize_bit_identical(kernel_sizes, length):
    """Across kernel sizes, member counts (1 and 4), and odd lengths."""
    model = make_model(kernel_sizes)
    x = windows(4, length, seed=len(kernel_sizes))
    assert_results_identical(model.localize(x), reference_localize(model, x))


def test_localize_bit_identical_with_postprocessing():
    config = CamALConfig(cam_floor=0.3, smooth_window=3, min_on_duration=2)
    model = make_model(config=config)
    x = windows(5, 40, seed=3)
    assert_results_identical(model.localize(x), reference_localize(model, x))


@given(
    kernel_sizes=st.sampled_from([(5,), (3, 5, 7, 9)]),
    length=st.integers(8, 40).map(lambda n: 2 * n + 1),
    cam_floor=st.sampled_from([0.0, 0.25, 0.5]),
    smooth_window=st.integers(0, 5),
    min_on_duration=st.integers(0, 4),
    seed=st.integers(0, 3),
)
@settings(max_examples=12, deadline=None)
def test_localize_matches_reference_property(
    kernel_sizes, length, cam_floor, smooth_window,
    min_on_duration, seed,
):
    config = CamALConfig(
        cam_floor=cam_floor,
        smooth_window=smooth_window,
        min_on_duration=min_on_duration,
    )
    model = make_model(kernel_sizes, seed=seed, config=config)
    x = windows(3, length, seed=seed)
    assert_results_identical(model.localize(x), reference_localize(model, x))


def test_detect_bit_identical():
    model = make_model()
    x = windows(6, 48, seed=4)
    np.testing.assert_array_equal(
        model.detect(x), reference_localize(model, x).probabilities
    )


def test_predict_status_bit_identical():
    model = make_model()
    x = windows(3, 37, seed=5)
    np.testing.assert_array_equal(
        model.predict_status(x), reference_localize(model, x).status
    )


def test_chunked_localize_allclose(monkeypatch):
    """Chunked and unchunked sweeps agree on every output of a batch."""
    model = make_model()
    x = windows(8, 36, seed=9)
    b = model.localize(x)
    monkeypatch.setattr(camal_module, "CHUNK_SIZE", 3)
    a = model.localize(x)
    np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)
    np.testing.assert_allclose(a.cam, b.cam, atol=1e-12)
    np.testing.assert_allclose(a.attention, b.attention, atol=1e-12)
    np.testing.assert_allclose(a.uncertainty, b.uncertainty, atol=1e-12)
    # Hard decisions compare away from the thresholds, where an ulp of
    # drift cannot flip them.
    decisive = np.abs(b.probabilities - 0.5) > 1e-9
    np.testing.assert_array_equal(a.detected[decisive], b.detected[decisive])
    cell = (np.abs(b.attention - 0.5) > 1e-9) & decisive[:, None]
    np.testing.assert_array_equal(a.status[cell], b.status[cell])


def test_chunked_detect_bit_identical(monkeypatch):
    monkeypatch.setattr(camal_module, "CHUNK_SIZE", 2)
    model = make_model()
    x = windows(7, 32, seed=10)
    np.testing.assert_array_equal(
        model.detect(x), reference_localize(model, x).probabilities
    )


def test_chunks_cover_batch_in_order(monkeypatch):
    monkeypatch.setattr(camal_module, "CHUNK_SIZE", 3)
    x = windows(8, 16, seed=11)
    parts = list(camal_module._chunks(x))
    assert [p.shape[0] for p in parts] == [3, 3, 2]
    np.testing.assert_array_equal(np.concatenate(parts), x)


def test_localize_leaves_no_layer_caches():
    model = make_model()
    model.localize(windows(2, 24, seed=12))
    leftovers = [
        (name, attr)
        for name, child in model.ensemble.named_modules()
        for attr in Module._CACHE_ATTRS
        if getattr(child, attr, None) is not None
    ]
    assert leftovers == []


def test_fingerprint_tracks_model_identity_and_config():
    model = make_model()
    same = CamAL(model.ensemble, model.scaler)
    assert model.fingerprint() == same.fingerprint()  # same ensemble+config
    other = make_model(seed=9)
    assert model.fingerprint() != other.fingerprint()  # different ensemble
    retuned = CamAL(
        model.ensemble, model.scaler, CamALConfig(detection_threshold=0.4)
    )
    assert model.fingerprint() != retuned.fingerprint()  # different config
    assert isinstance(hash(model.fingerprint()), int)  # usable as cache key
