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
