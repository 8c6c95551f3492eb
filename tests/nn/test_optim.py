"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter, clip_grad_norm


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def minimize(optimizer, param, steps=200):
    """Minimize f(x) = x^2 whose gradient is 2x."""
    for _ in range(steps):
        optimizer.zero_grad()
        param.accumulate_grad(2.0 * param.data)
        optimizer.step()
    return float(param.data[0])


def test_sgd_converges_on_quadratic():
    p = quadratic_param()
    assert abs(minimize(SGD([p], lr=0.1), p)) < 1e-6


def test_sgd_momentum_converges():
    p = quadratic_param()
    assert abs(minimize(SGD([p], lr=0.05, momentum=0.9), p, steps=400)) < 1e-6


def test_sgd_nesterov_converges():
    p = quadratic_param()
    assert abs(minimize(SGD([p], lr=0.05, momentum=0.9, nesterov=True), p)) < 1e-6


def test_adam_converges_on_quadratic():
    p = quadratic_param()
    assert abs(minimize(Adam([p], lr=0.1), p, steps=500)) < 1e-4


def test_sgd_weight_decay_adds_l2_pull():
    p = Parameter(np.array([1.0]))
    opt = SGD([p], lr=0.1, weight_decay=1.0)
    opt.zero_grad()
    p.accumulate_grad(np.zeros(1))
    opt.step()
    assert p.data[0] == pytest.approx(0.9)


def test_frozen_parameters_are_skipped():
    p = Parameter(np.array([1.0]), requires_grad=False)
    q = Parameter(np.array([1.0]))
    opt = SGD([p, q], lr=0.5)
    q.accumulate_grad(np.ones(1))
    opt.step()
    assert p.data[0] == 1.0
    assert q.data[0] == 0.5


def test_adam_first_step_size_is_lr():
    """With bias correction, Adam's very first step has magnitude ~lr."""
    p = Parameter(np.array([0.0]))
    opt = Adam([p], lr=0.01)
    p.accumulate_grad(np.array([3.7]))
    opt.step()
    assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-6)


def test_clip_grad_norm_scales_down():
    p = Parameter(np.zeros(4))
    p.accumulate_grad(np.array([3.0, 4.0, 0.0, 0.0]))  # norm 5
    pre = clip_grad_norm([p], max_norm=1.0)
    assert pre == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)


def test_clip_grad_norm_leaves_small_gradients_alone():
    p = Parameter(np.zeros(2))
    p.accumulate_grad(np.array([0.3, 0.4]))
    clip_grad_norm([p], max_norm=1.0)
    np.testing.assert_allclose(p.grad, [0.3, 0.4])


def test_empty_parameter_list_rejected():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_invalid_hyperparameters_rejected():
    p = quadratic_param()
    with pytest.raises(ValueError):
        SGD([p], lr=-1.0)
    with pytest.raises(ValueError):
        SGD([p], lr=0.1, momentum=1.5)
    with pytest.raises(ValueError):
        SGD([p], lr=0.1, nesterov=True)
    with pytest.raises(ValueError):
        Adam([p], lr=0.1, betas=(1.2, 0.9))
