"""Inference mode: cache-free forwards, and backward() releasing caches.

The fast path's memory contract has two halves:

* under :func:`repro.nn.inference_mode` a forward pass must leave **no**
  backward cache behind on any layer, while producing bit-identical
  outputs to a normal forward;
* outside inference mode, ``backward()`` must *release* each layer's
  cache at the end of its single use (the memory-leak fix) — gradients
  never pin input-sized intermediates across steps.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.models import ResidualBlock, ResNetTSC
from repro.nn import inference_mode, is_inference
from repro.nn.module import Module


def cached_intermediates(module: Module) -> list[tuple[str, str]]:
    """Every populated cache attribute in a module tree."""
    found = []
    for name, child in module.named_modules():
        for attr in Module._CACHE_ATTRS:
            if getattr(child, attr, None) is not None:
                found.append((name or type(child).__name__, attr))
    return found


def layer_zoo(rng):
    """One instance of every cache-carrying layer the models use."""
    return {
        "conv": (nn.Conv1d(2, 3, 5, rng=rng), rng.normal(size=(2, 2, 20))),
        "conv_stride": (
            nn.Conv1d(2, 3, 5, stride=2, padding=2, rng=rng),
            rng.normal(size=(2, 2, 21)),
        ),
        "conv_dilated": (
            nn.Conv1d(2, 3, 3, dilation=2, rng=rng),
            rng.normal(size=(2, 2, 19)),
        ),
        "bn": (nn.BatchNorm1d(3), rng.normal(size=(4, 3, 10))),
        "ln": (nn.LayerNorm(6), rng.normal(size=(4, 6))),
        "linear": (nn.Linear(6, 4, rng=rng), rng.normal(size=(3, 6))),
        "relu": (nn.ReLU(), rng.normal(size=(3, 8))),
        "gap": (nn.GlobalAvgPool1d(), rng.normal(size=(2, 3, 12))),
        "maxpool": (nn.MaxPool1d(3), rng.normal(size=(2, 3, 13))),
        "upsample": (nn.Upsample1d(2), rng.normal(size=(2, 3, 7))),
        "flatten": (nn.Flatten(), rng.normal(size=(2, 3, 5))),
    }


def test_flag_default_off():
    assert not is_inference()


def test_context_sets_and_restores_flag():
    with inference_mode():
        assert is_inference()
    assert not is_inference()


def test_context_is_reentrant():
    with inference_mode():
        with inference_mode():
            assert is_inference()
        assert is_inference()  # inner exit must not flip the flag off
    assert not is_inference()


def test_flag_restored_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with inference_mode():
            raise RuntimeError("boom")
    assert not is_inference()


@pytest.mark.parametrize("name", sorted(layer_zoo(np.random.default_rng(0))))
def test_no_cache_after_inference_forward(name):
    layer, x = layer_zoo(np.random.default_rng(0))[name]
    with inference_mode():
        layer(x)
    assert cached_intermediates(layer) == [], name


@pytest.mark.parametrize("name", sorted(layer_zoo(np.random.default_rng(0))))
def test_inference_forward_bit_identical(name):
    """Skipping the caches must not change a single bit of the output."""
    rng = np.random.default_rng(1)
    layer, x = layer_zoo(rng)[name]
    layer.eval()  # freeze BN running stats so both passes see same state
    reference = layer(x)
    layer.clear_caches()
    with inference_mode():
        fast = layer(x)
    np.testing.assert_array_equal(fast, reference)


@pytest.mark.parametrize("name", sorted(layer_zoo(np.random.default_rng(0))))
def test_backward_after_inference_forward_raises(name):
    layer, x = layer_zoo(np.random.default_rng(2))[name]
    with inference_mode():
        out = layer(x)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("name", sorted(layer_zoo(np.random.default_rng(0))))
def test_backward_releases_cache(name):
    """The leak fix: after backward() no layer retains its intermediates."""
    layer, x = layer_zoo(np.random.default_rng(3))[name]
    out = layer(x)
    assert cached_intermediates(layer), f"{name} cached nothing to release"
    layer.backward(np.ones_like(out))
    assert cached_intermediates(layer) == [], name


def test_backward_still_correct_after_cache_release():
    """Releasing the cache must not corrupt the gradient it just produced
    — and a fresh forward/backward cycle still works."""
    rng = np.random.default_rng(4)
    layer = nn.Conv1d(1, 2, 3, rng=rng)
    x = rng.normal(size=(2, 1, 11))
    for _ in range(2):  # two full cycles through the same layer
        out = layer(x)
        layer.zero_grad()
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert np.isfinite(layer.weight.grad).all()
        assert layer._cache is None


def test_resnet_inference_forward_is_cache_free():
    model = ResNetTSC(kernel_size=5, n_filters=(4, 8, 8))
    model.eval()
    x = np.random.default_rng(5).normal(size=(2, 1, 40))
    reference = model(x)
    model.clear_caches()
    with inference_mode():
        fast = model(x)
    np.testing.assert_array_equal(fast, reference)
    assert cached_intermediates(model) == []


def test_resnet_forward_features_skips_feature_retention():
    model = ResNetTSC(kernel_size=5, n_filters=(4, 8, 8))
    model.eval()
    x = np.random.default_rng(6).normal(size=(1, 1, 30))
    with inference_mode():
        features, logits = model.forward_features(x)
    assert model._features is None  # nothing pinned for later CAM calls
    # ... but the returned features still drive CAM extraction directly.
    cam = model.cam_from_features(features)
    assert cam.shape == (1, 30)
    assert logits.shape == (1, 2)


def test_residual_block_cache_free_and_identical():
    rng = np.random.default_rng(7)
    block = ResidualBlock(2, 4, 5, rng)
    block.eval()
    x = rng.normal(size=(2, 2, 16))
    reference = block(x)
    block.clear_caches()
    with inference_mode():
        fast = block(x)
    np.testing.assert_array_equal(fast, reference)
    assert cached_intermediates(block) == []


def test_clear_caches_drops_everything():
    model = ResNetTSC(kernel_size=3, n_filters=(2, 3, 3))
    model.eval()
    model(np.random.default_rng(8).normal(size=(1, 1, 20)))
    assert cached_intermediates(model)
    model.clear_caches()
    assert cached_intermediates(model) == []


def test_training_step_unaffected_by_prior_inference_pass():
    """An inference pass between training steps must not poison backward."""
    rng = np.random.default_rng(9)
    model = ResNetTSC(kernel_size=3, n_filters=(2, 3, 3), rng=rng)
    loss_fn = nn.CrossEntropyLoss()
    x = rng.normal(size=(2, 1, 12))
    y = np.array([0, 1])
    with inference_mode():
        model(x)
    logits = model(x)
    loss_fn(logits, y)
    model.zero_grad()
    model.backward(loss_fn.backward())
    grads = [p.grad for p in model.parameters() if p.requires_grad]
    assert all(np.isfinite(g).all() for g in grads)


def test_inference_mode_is_per_thread():
    """A thread holding inference_mode leaves another thread's training
    forward and backward untouched."""
    rng = np.random.default_rng(10)
    model = ResNetTSC(kernel_size=3, n_filters=(2, 3, 3), rng=rng)
    loss_fn = nn.CrossEntropyLoss()
    x = rng.normal(size=(2, 1, 12))
    y = np.array([0, 1])
    entered, release = threading.Event(), threading.Event()

    def hold():
        with inference_mode():
            entered.set()
            release.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(timeout=30)
        assert not is_inference()
        logits = model(x)
        assert cached_intermediates(model)
        loss_fn(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
    finally:
        release.set()
        holder.join(timeout=30)
    grads = [p.grad for p in model.parameters() if p.requires_grad]
    assert grads and all(np.isfinite(g).all() for g in grads)
