"""Unit and property tests for stateless numerical primitives."""

import numpy as np
import pytest

from repro.nn import functional as F


def test_sigmoid_matches_naive_on_moderate_values():
    x = np.linspace(-10, 10, 101)
    np.testing.assert_allclose(F.sigmoid(x), 1 / (1 + np.exp(-x)), atol=1e-12)


def test_sigmoid_is_stable_for_extreme_values():
    x = np.array([-1e4, -100.0, 100.0, 1e4])
    out = F.sigmoid(x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-30)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(5, 7)) * 50
    probs = F.softmax(x, axis=1)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))
    assert np.all(probs >= 0)


def test_log_softmax_consistent_with_softmax():
    x = np.random.default_rng(1).normal(size=(4, 6))
    np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)), atol=1e-12)


def test_one_hot_basic():
    out = F.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        F.one_hot(np.array([0, 3]), 3)


def test_relu_clamps_negative():
    np.testing.assert_array_equal(
        F.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
    )
