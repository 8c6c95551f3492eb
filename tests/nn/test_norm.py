"""Tests for BatchNorm1d and LayerNorm."""

import numpy as np
import pytest

from repro.nn import BatchNorm1d, LayerNorm, MSELoss, check_module_gradients


def test_batchnorm_normalizes_per_channel_in_training():
    rng = np.random.default_rng(0)
    bn = BatchNorm1d(3)
    x = rng.normal(loc=5.0, scale=4.0, size=(32, 3, 20))
    out = bn(x)
    np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2)), 1.0, atol=1e-3)


def test_batchnorm_2d_input_supported():
    rng = np.random.default_rng(1)
    bn = BatchNorm1d(4)
    out = bn(rng.normal(size=(16, 4)))
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)


def test_running_stats_converge_to_data_statistics():
    rng = np.random.default_rng(2)
    bn = BatchNorm1d(2, momentum=0.2)
    for _ in range(200):
        bn(rng.normal(loc=[3.0], scale=2.0, size=(64, 2, 8)) + np.array([0.0, 1.0])[None, :, None])
    np.testing.assert_allclose(bn.running_mean, [3.0, 4.0], atol=0.15)
    np.testing.assert_allclose(bn.running_var, [4.0, 4.0], atol=0.4)


def test_eval_mode_uses_running_stats():
    rng = np.random.default_rng(3)
    bn = BatchNorm1d(1)
    for _ in range(100):
        bn(rng.normal(loc=10.0, size=(32, 1, 4)))
    bn.eval()
    # A constant input far from the running mean maps deterministically.
    out = bn(np.full((2, 1, 4), 10.0))
    np.testing.assert_allclose(out, 0.0, atol=0.2)
    out2 = bn(np.full((2, 1, 4), 10.0))
    np.testing.assert_array_equal(out, out2)


def test_batchnorm_gradients_training_mode():
    rng = np.random.default_rng(4)
    bn = BatchNorm1d(2)
    x = rng.normal(size=(4, 2, 6))
    y = rng.normal(size=(4, 2, 6))
    check_module_gradients(bn, MSELoss(), x, y, atol=1e-4)


def test_batchnorm_gradients_eval_mode():
    rng = np.random.default_rng(5)
    bn = BatchNorm1d(2)
    bn(rng.normal(size=(8, 2, 6)))  # populate running stats
    bn.eval()
    x = rng.normal(size=(3, 2, 5))
    y = rng.normal(size=(3, 2, 5))
    check_module_gradients(bn, MSELoss(), x, y)


def reference_eval_batchnorm(bn, x):
    """The textbook eval form, gamma * (x - mean) / sqrt(var + eps) + beta."""
    def expand(stat):
        return stat[None, :, None] if x.ndim == 3 else stat[None, :]

    return expand(bn.gamma.data) * (x - expand(bn.running_mean)) / np.sqrt(
        expand(bn.running_var) + bn.eps
    ) + expand(bn.beta.data)


def random_stats_batchnorm(c, seed):
    rng = np.random.default_rng(seed)
    bn = BatchNorm1d(c)
    bn.gamma.data[...] = rng.uniform(-2.0, 2.0, c)
    bn.beta.data[...] = rng.normal(0.0, 3.0, c)
    bn.running_mean[...] = rng.normal(0.0, 5.0, c)
    bn.running_var[...] = rng.uniform(1e-3, 10.0, c)
    bn.eval()
    return bn


@pytest.mark.parametrize("layout", ["ncl", "channels-last", "nc"])
@pytest.mark.parametrize("seed", range(5))
def test_eval_affine_matches_reference_on_random_stats(layout, seed):
    rng = np.random.default_rng(100 + seed)
    bn = random_stats_batchnorm(6, seed)
    if layout == "ncl":
        x = rng.normal(0.0, 20.0, size=(3, 6, 50))
    elif layout == "channels-last":
        # What every Conv1d returns: an (N, C, L) view of (N, L, C) storage.
        x = rng.normal(0.0, 20.0, size=(3, 50, 6)).transpose(0, 2, 1)
    else:
        x = rng.normal(0.0, 20.0, size=(7, 6))
    before = x.copy()
    out = bn(x)
    want = reference_eval_batchnorm(bn, x)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(out, x)


def test_eval_affine_follows_in_place_updates():
    """scale and shift are derived per call: an in-place write to gamma,
    beta or a running buffer shows in the very next forward."""
    bn = random_stats_batchnorm(3, 9)
    x = np.random.default_rng(9).normal(size=(2, 3, 8))
    bn(x)
    bn.gamma.data *= 2.0
    bn.beta.data += 1.0
    bn.running_mean[...] += 0.5
    bn.running_var[...] *= 3.0
    np.testing.assert_allclose(
        bn(x), reference_eval_batchnorm(bn, x), rtol=1e-12, atol=1e-12
    )


def test_batchnorm_rejects_wrong_channels():
    bn = BatchNorm1d(3)
    with pytest.raises(ValueError, match="channels"):
        bn(np.zeros((2, 4, 5)))


def test_layernorm_normalizes_last_axis():
    rng = np.random.default_rng(6)
    ln = LayerNorm(8)
    out = ln(rng.normal(loc=3.0, scale=2.0, size=(4, 5, 8)))
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)


def test_layernorm_gradients():
    rng = np.random.default_rng(7)
    ln = LayerNorm(5)
    x = rng.normal(size=(3, 4, 5))
    y = rng.normal(size=(3, 4, 5))
    check_module_gradients(ln, MSELoss(), x, y, atol=1e-4)
