"""Tests for the ReLU activation layer."""

import numpy as np
import pytest

from repro.nn import MSELoss, ReLU, check_module_gradients


@pytest.mark.parametrize("layer_cls", [ReLU])
def test_gradients_match_finite_differences(layer_cls):
    rng = np.random.default_rng(0)
    layer = layer_cls()
    # Keep values away from ReLU's kink at 0 for clean finite differences.
    x = rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.2
    y = rng.normal(size=(3, 4))
    check_module_gradients(layer, MSELoss(), x, y)


def test_relu_forward():
    out = ReLU()(np.array([[-2.0, 0.0, 3.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0]])


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        ReLU().backward(np.zeros((1, 1)))


def test_relu_maps_nan_to_zero():
    out = ReLU()(np.array([np.nan, -np.nan, -1.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 2.0])


def test_relu_returns_a_new_array_and_leaves_its_input():
    x = np.array([[-2.0, 0.5, np.nan, 3.0]])
    before = x.copy()
    out = ReLU()(x)
    assert not np.shares_memory(out, x)
    np.testing.assert_array_equal(x, before)
