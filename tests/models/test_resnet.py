"""Tests for the TSC ResNet and its CAM extraction."""

import numpy as np
import pytest

from repro.models import ResidualBlock, ResNetTSC
from repro.nn import CrossEntropyLoss, MSELoss, check_module_gradients
from repro.nn.module import inference_mode


def small_resnet(k=5, seed=0):
    return ResNetTSC(
        kernel_size=k, n_filters=(4, 8, 8), rng=np.random.default_rng(seed)
    )


def test_logit_shape():
    model = small_resnet()
    out = model(np.zeros((3, 1, 40)))
    assert out.shape == (3, 2)


def test_feature_maps_preserve_length():
    """Same-padding stride-1 convs keep time alignment — the property CAM
    localization depends on."""
    model = small_resnet(k=15)
    features, logits = model.forward_features(np.zeros((2, 1, 37)))
    assert features.shape == (2, 8, 37)
    assert logits.shape == (2, 2)


def test_forward_features_logits_match_forward():
    """The single-pass contract: forward() is forward_features()'s logits."""
    model = small_resnet()
    model.eval()
    x = np.random.default_rng(11).normal(size=(3, 1, 28))
    _, logits = model.forward_features(x)
    np.testing.assert_array_equal(logits, model(x))


def test_cam_shape_matches_input_length():
    model = small_resnet()
    x = np.random.default_rng(1).normal(size=(2, 1, 50))
    cam = model.class_activation_map(x)
    assert cam.shape == (2, 50)


def test_cam_equals_weighted_feature_sum():
    model = small_resnet()
    x = np.random.default_rng(2).normal(size=(1, 1, 30))
    features, _ = model.forward_features(x)
    cam = model.class_activation_map()
    manual = np.tensordot(model.fc.weight.data[1], features[0], axes=(0, 0))
    np.testing.assert_allclose(cam[0], manual)


def test_cam_uses_requested_class():
    model = small_resnet()
    x = np.random.default_rng(3).normal(size=(1, 1, 30))
    cam0 = model.class_activation_map(x, class_index=0)
    cam1 = model.class_activation_map(x, class_index=1)
    assert not np.allclose(cam0, cam1)


def test_cam_without_forward_raises():
    model = small_resnet()
    with pytest.raises(RuntimeError, match="no cached features"):
        model.class_activation_map()


def test_cam_rejects_bad_class():
    model = small_resnet()
    with pytest.raises(ValueError):
        model.class_activation_map(np.zeros((1, 1, 20)), class_index=5)


def test_predict_proba_in_unit_interval():
    model = small_resnet()
    probs = model.predict_proba(np.random.default_rng(4).normal(size=(5, 1, 32)))
    assert probs.shape == (5,)
    assert np.all((probs >= 0) & (probs <= 1))


def test_gradients_flow_through_whole_network():
    model = ResNetTSC(
        kernel_size=3, n_filters=(2, 3, 3), rng=np.random.default_rng(5)
    )
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 1, 12))
    y = np.array([0, 1])
    check_module_gradients(
        model, CrossEntropyLoss(), x, y, atol=1e-4, rtol=1e-3
    )


def test_residual_block_gradients():
    rng = np.random.default_rng(7)
    block = ResidualBlock(2, 3, 3, rng)
    x = rng.normal(size=(2, 2, 10))
    y = rng.normal(size=(2, 3, 10))
    check_module_gradients(block, MSELoss(), x, y, atol=1e-4, rtol=1e-3)


def test_identity_shortcut_when_channels_match():
    rng = np.random.default_rng(8)
    block = ResidualBlock(4, 4, 3, rng)
    assert block.shortcut is None
    x = rng.normal(size=(1, 4, 10))
    y = rng.normal(size=(1, 4, 10))
    check_module_gradients(block, MSELoss(), x, y, atol=1e-4, rtol=1e-3)


def test_kernel_size_is_recorded():
    assert small_resnet(k=9).kernel_size == 9


def test_invalid_construction():
    with pytest.raises(ValueError):
        ResNetTSC(kernel_size=0)
    with pytest.raises(ValueError):
        ResNetTSC(n_filters=(4, 8))


def test_state_dict_roundtrip():
    a = small_resnet(seed=1)
    b = small_resnet(seed=2)
    x = np.random.default_rng(9).normal(size=(2, 1, 24))
    a.eval()
    b.eval()
    b.load_state_dict(a.state_dict())
    np.testing.assert_allclose(a(x), b(x))


@pytest.mark.parametrize("c_in, c_out", [(2, 3), (4, 4)], ids=["proj", "identity"])
@pytest.mark.parametrize("inference", [False, True])
def test_residual_block_never_writes_into_its_input(c_in, c_out, inference):
    """The block adds the residual and applies its ReLU in place, but only
    into its own main output — the identity shortcut's x is left alone."""
    rng = np.random.default_rng(10)
    block = ResidualBlock(c_in, c_out, 3, rng)
    block.eval()
    x = rng.normal(size=(2, c_in, 12))
    before = x.copy()
    if inference:
        with inference_mode():
            out = block(x)
    else:
        out = block(x)
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(out, x)
    residual = x if block.shortcut is None else block.shortcut(x)
    pre = block.main(x) + residual
    np.testing.assert_array_equal(out, np.where(pre > 0, pre, 0.0))
