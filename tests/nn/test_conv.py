"""Gradient, shape and invariance tests for Conv1d."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, Conv1d, MSELoss, check_module_gradients
from repro.nn.conv import TIME_TILE
from repro.nn.module import inference_mode


def rng():
    return np.random.default_rng(42)


def test_same_padding_preserves_length():
    for k in (1, 3, 5, 7, 9, 15):
        conv = Conv1d(2, 3, k, padding="same", rng=rng())
        out = conv(np.zeros((1, 2, 40)))
        assert out.shape == (1, 3, 40), f"kernel {k}"


def test_valid_padding_output_length():
    conv = Conv1d(1, 1, 4, padding=0, rng=rng())
    out = conv(np.zeros((1, 1, 10)))
    assert out.shape == (1, 1, 7)


def test_strided_output_length():
    conv = Conv1d(1, 2, 3, stride=2, padding=1, rng=rng())
    out = conv(np.zeros((1, 1, 10)))
    # L_out = (10 + 2*1 - 3)//2 + 1 = 5
    assert out.shape == (1, 2, 5)


def test_matches_manual_convolution():
    conv = Conv1d(1, 1, 3, padding=0, bias=False, rng=rng())
    conv.weight.copy_(np.array([[[1.0, 0.0, -1.0]]]))
    x = np.array([[[1.0, 2.0, 4.0, 7.0, 11.0]]])
    out = conv(x)
    # cross-correlation: x[t] - x[t+2]
    np.testing.assert_allclose(out[0, 0], [1 - 4, 2 - 7, 4 - 11])


def test_bias_adds_per_channel():
    conv = Conv1d(1, 2, 1, rng=rng())
    conv.weight.copy_(np.zeros((2, 1, 1)))
    conv.bias.copy_(np.array([1.5, -2.0]))
    out = conv(np.zeros((1, 1, 4)))
    np.testing.assert_allclose(out[0, 0], 1.5)
    np.testing.assert_allclose(out[0, 1], -2.0)


@pytest.mark.parametrize("kernel,stride,padding", [
    (1, 1, "same"),
    (3, 1, "same"),
    (5, 1, "same"),
    (3, 1, 0),
    (3, 2, 1),
    (4, 2, 2),
    (7, 3, 3),
])
def test_gradients_match_finite_differences(kernel, stride, padding):
    r = rng()
    conv = Conv1d(2, 3, kernel, stride=stride, padding=padding, rng=r)
    x = r.normal(size=(2, 2, 14))
    y = r.normal(size=conv(x).shape)
    check_module_gradients(conv, MSELoss(), x, y)


def test_rejects_wrong_channel_count():
    conv = Conv1d(3, 1, 3, rng=rng())
    with pytest.raises(ValueError, match="expected input"):
        conv(np.zeros((1, 2, 10)))


def test_rejects_same_padding_with_stride():
    with pytest.raises(ValueError, match="'same' padding"):
        Conv1d(1, 1, 3, stride=2, padding="same")


def test_rejects_too_short_input():
    conv = Conv1d(1, 1, 9, padding=0, rng=rng())
    with pytest.raises(ValueError, match="too short"):
        conv(np.zeros((1, 1, 5)))


def test_backward_before_forward_raises():
    conv = Conv1d(1, 1, 3, rng=rng())
    with pytest.raises(RuntimeError):
        conv.backward(np.zeros((1, 1, 10)))


def test_no_bias_mode_has_no_bias_parameter():
    conv = Conv1d(1, 1, 3, bias=False, rng=rng())
    assert [n for n, _ in conv.named_parameters()] == ["weight"]


def test_dilated_same_padding_preserves_length():
    conv = Conv1d(1, 2, 3, dilation=4, padding="same", rng=rng())
    assert conv(np.zeros((1, 1, 30))).shape == (1, 2, 30)
    assert conv.span == 9


def test_dilated_convolution_matches_manual():
    conv = Conv1d(1, 1, 3, dilation=2, padding=0, bias=False, rng=rng())
    conv.weight.copy_(np.array([[[1.0, 0.0, -1.0]]]))
    x = np.array([[[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]]])
    out = conv(x)
    # taps at offsets 0 and 4: x[t] - x[t+4]
    np.testing.assert_allclose(out[0, 0], [1 - 16, 2 - 32])


@pytest.mark.parametrize("dilation,stride", [(2, 1), (3, 1), (2, 2)])
def test_dilated_gradients_match_finite_differences(dilation, stride):
    r = rng()
    conv = Conv1d(2, 2, 3, stride=stride, dilation=dilation, padding=2, rng=r)
    x = r.normal(size=(2, 2, 14))
    y = r.normal(size=conv(x).shape)
    check_module_gradients(conv, MSELoss(), x, y)


def test_dilation_validation():
    with pytest.raises(ValueError):
        Conv1d(1, 1, 3, dilation=0)


@st.composite
def conv_cases(draw, max_kernel=9, bias=True):
    """A Conv1d over random C, D, K, dilation, stride/padding, N and L."""
    c_in = draw(st.integers(1, 4))
    d_out = draw(st.integers(1, 5))
    kernel = draw(st.integers(1, max_kernel))
    dilation = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    if stride == 1 and draw(st.booleans()):
        padding = "same"
    else:
        padding = draw(st.integers(0, kernel))
    conv = Conv1d(
        c_in, d_out, kernel, stride=stride, padding=padding,
        dilation=dilation, bias=bias,
        rng=np.random.default_rng(draw(st.integers(0, 99))),
    )
    left, right = conv._pad_amounts(0)
    min_length = max(conv.span - left - right, 1)
    length = draw(st.integers(min_length, min_length + 3 * TIME_TILE + 20))
    n = draw(st.integers(1, 4))
    x = np.random.default_rng(draw(st.integers(0, 99))).normal(
        size=(n, c_in, length)
    )
    return conv, x


@given(case=conv_cases())
@settings(max_examples=60, deadline=None)
def test_batched_rows_are_bitwise_solo_sweeps(case):
    """Row i of a batched forward equals window i swept alone, bit for bit."""
    conv, x = case
    with inference_mode():
        batched = conv(x)
        for i in range(x.shape[0]):
            solo = conv(x[i : i + 1])[0]
            assert batched[i].tobytes() == solo.tobytes()


@given(case=conv_cases(), extra=st.integers(1, 2 * TIME_TILE))
@settings(max_examples=60, deadline=None)
def test_extended_input_keeps_every_position_with_unchanged_context(
    case, extra
):
    """Extending x1 on the right leaves each output whose receptive
    field ends inside x1 bit-identical — those in x1's last, partial
    GEMM tile included."""
    conv, x1 = case
    x1 = x1[:1]
    tail = np.random.default_rng(extra).normal(size=(1, x1.shape[1], extra))
    x2 = np.concatenate([x1, tail], axis=2)
    left, _ = conv._pad_amounts(x1.shape[2])
    with inference_mode():
        y1, y2 = conv(x1), conv(x2)
    # Output t reads x[t·stride - left, t·stride - left + span - 1].
    last_input = np.arange(y1.shape[2]) * conv.stride - left + conv.span - 1
    kept = int(np.count_nonzero(last_input < x1.shape[2]))
    assert y1[..., :kept].tobytes() == y2[..., :kept].tobytes()


def test_last_partial_tile_reproduces_in_a_longer_sweep():
    """A one-row last tile (the shape BLAS would treat as a vector)
    gives the same bits as that row inside a whole tile."""
    conv = Conv1d(3, 4, 5, padding=0, rng=rng())
    x2 = rng().normal(size=(1, 3, 3 * TIME_TILE))
    length = TIME_TILE + conv.span  # l_out = TIME_TILE + 1
    with inference_mode():
        y1, y2 = conv(x2[..., :length]), conv(x2)
    assert y1.shape[2] == TIME_TILE + 1
    assert y1.tobytes() == y2[..., : TIME_TILE + 1].tobytes()


@given(
    c_in=st.integers(1, 2),
    d_out=st.integers(1, 3),
    kernel=st.integers(1, 5),
    stride=st.integers(2, 3),
    dilation=st.integers(2, 3),
    padding=st.integers(0, 5),
    n=st.integers(1, 2),
    extra=st.integers(0, 2 * TIME_TILE + 8),
    seed=st.integers(0, 99),
)
@settings(max_examples=15, deadline=None)
def test_strided_dilated_gradients_match_finite_differences(
    c_in, d_out, kernel, stride, dilation, padding, n, extra, seed
):
    """The right zero-extension that whole tiles need never leaks into
    the weight, bias or input gradients."""
    r = np.random.default_rng(seed)
    conv = Conv1d(
        c_in, d_out, kernel, stride=stride, padding=padding,
        dilation=dilation, rng=r,
    )
    length = max(conv.span - 2 * padding, 1) + extra
    x = r.normal(size=(n, c_in, length))
    y = r.normal(size=conv(x).shape)
    check_module_gradients(conv, MSELoss(), x, y)


def loop_cross_correlation(conv, x):
    """Conv1d's forward written as the textbook sum over taps."""
    left, right = conv._pad_amounts(x.shape[2])
    padded = np.pad(x, ((0, 0), (0, 0), (left, right)))
    l_out = (padded.shape[2] - conv.span) // conv.stride + 1
    out = np.zeros((x.shape[0], conv.out_channels, l_out))
    for t in range(l_out):
        for tap in range(conv.kernel_size):
            col = padded[:, :, t * conv.stride + tap * conv.dilation]
            out[:, :, t] += col @ conv.weight.data[:, :, tap].T
    return out


@given(case=conv_cases(max_kernel=15, bias=False))
@settings(max_examples=60, deadline=None)
def test_forward_matches_loop_cross_correlation(case):
    conv, x = case
    np.testing.assert_allclose(
        conv(x), loop_cross_correlation(conv, x), rtol=0, atol=1e-12
    )


@given(case=conv_cases(max_kernel=15, bias=False), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_backward_is_the_adjoint_of_forward(case, seed):
    """<conv(x), g> == <x, backward(g)> to 1e-10 of the terms' scale:
    the input gradient is the exact transpose of the linear map, which
    finite differences cannot check to this precision."""
    conv, x = case
    y = conv(x)
    g = np.random.default_rng(seed).normal(size=y.shape)
    lhs = float(np.sum(y * g))
    rhs = float(np.sum(x * conv.backward(g)))
    assert abs(lhs - rhs) <= 1e-10 * float(np.sum(np.abs(y * g)))


def assert_rhs_is_a_view(conv):
    """Forward's (K·C, D) right-hand side is a view of the weight."""
    kmajor = conv.weight.data.transpose(2, 1, 0)
    assert kmajor.flags.c_contiguous
    rhs = kmajor.reshape(conv.kernel_size * conv.in_channels, -1)
    assert np.shares_memory(rhs, conv.weight.data)


def test_state_dict_roundtrip_keeps_forward_and_kmajor_storage():
    rng = np.random.default_rng(11)
    a = Conv1d(3, 5, 7, rng=rng)
    b = Conv1d(3, 5, 7, rng=np.random.default_rng(12))
    a.bias.data[...] = rng.normal(size=5)
    x = rng.normal(size=(2, 3, 70))
    state = a.state_dict()
    np.testing.assert_array_equal(state["weight"], a.weight.data)
    assert state["weight"].shape == (5, 3, 7)
    b.load_state_dict(state)
    assert np.array_equal(a(x), b(x))
    assert_rhs_is_a_view(a)
    assert_rhs_is_a_view(b)


def test_adam_step_keeps_forward_and_kmajor_storage():
    """The optimizer updates the K-major storage in place: the stepped
    layer still sweeps with a view, bit-identical to a fresh layer loaded
    with its state."""
    rng = np.random.default_rng(13)
    conv = Conv1d(4, 6, 9, rng=rng)
    storage = conv.weight.data
    x = rng.normal(size=(2, 4, 45))
    optimizer = Adam(conv.parameters(), lr=1e-2)
    for _ in range(3):
        conv.zero_grad()
        out = conv(x)
        conv.backward(out - 1.0)
        optimizer.step()
    assert conv.weight.data is storage
    assert_rhs_is_a_view(conv)
    fresh = Conv1d(4, 6, 9, rng=np.random.default_rng(14))
    fresh.load_state_dict(conv.state_dict())
    assert np.array_equal(conv(x), fresh(x))
