"""``_as_watts``: the vectorized parse answers exactly like the
per-element loop it replaced — same bits, same 400s, same messages.
``_json_watts``, the series route's inverse, builds the same list as the
per-sample comprehension it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.service import (
    MAX_INGEST_SAMPLES,
    ServiceError,
    _as_watts,
    _json_watts,
)

from .test_http import rpc, server  # noqa: F401  (server is a fixture)


def reference_watts(values) -> np.ndarray:
    """The per-element parse, one ``isinstance``/``float`` per sample."""
    out = np.empty(len(values), dtype=np.float64)
    for i, v in enumerate(values):
        if v is None:
            out[i] = np.nan
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[i] = float(v)
        else:
            raise ServiceError(
                400, f"watts[{i}] is not a number or null: {v!r}"
            )
    return out


def assert_bit_identical(values):
    got, want = _as_watts(values), reference_watts(values)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1, 2.5, None, -3, 0, None],
        [0.0, -0.0, -0, None],
        [math.inf, -math.inf, None, 1e308, -1e-310],
        [2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1, -(2**63) - 1],
        [None, None],
        (4, None, 5.5),
    ],
    ids=["empty", "mixed", "zeros", "inf", "big-ints", "all-null", "tuple"],
)
def test_vectorized_parse_is_bit_identical(values):
    assert_bit_identical(values)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**80), max_value=2**80),
            st.floats(allow_nan=False),
        ),
        max_size=40,
    )
)
def test_vectorized_parse_matches_reference_on_any_json_numbers(values):
    assert_bit_identical(values)


@pytest.mark.parametrize("bad", [True, False, "1.5", [1], {}])
@pytest.mark.parametrize("index", [0, 3])
def test_first_bad_element_is_named(bad, index):
    values = [1.0, None, 2][:index] + [bad, "later-bad", 5.0]
    with pytest.raises(ServiceError) as got:
        _as_watts(values)
    with pytest.raises(ServiceError) as want:
        reference_watts(values)
    assert got.value.status == want.value.status == 400
    assert got.value.payload == want.value.payload
    assert f"watts[{index}]" in str(got.value)


def test_int_beyond_float_range_overflows_like_float():
    for parse in (_as_watts, reference_watts):
        with pytest.raises(OverflowError):
            parse([1.0, 10**400])


@pytest.mark.parametrize(
    "values, status",
    [(None, 400), ("1,2,3", 400), ({"a": 1}, 400)],
)
def test_shape_errors_keep_their_status(values, status):
    with pytest.raises(ServiceError) as err:
        _as_watts(values)
    assert err.value.status == status


def test_oversized_body_is_413():
    with pytest.raises(ServiceError) as err:
        _as_watts([0.0] * (MAX_INGEST_SAMPLES + 1))
    assert err.value.status == 413


def test_int_beyond_float_range_is_400_over_http(server):  # noqa: F811
    tenant = "overflow"
    status, _, _ = rpc(
        server.url, "POST", "/houses", body={"house_id": "h1"}, tenant=tenant
    )
    assert status == 201
    raw = b'{"watts": [1.5, ' + str(10**400).encode() + b"]}"
    status, payload, _ = rpc(
        server.url, "POST", "/houses/h1/ingest", raw=raw, tenant=tenant
    )
    assert status == 400
    assert "too large" in payload["error"]


def reference_json_watts(window: np.ndarray) -> list:
    """The per-sample payload, one ``isnan`` per element."""
    return [None if np.isnan(w) else float(w) for w in window]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(math.nan),
            st.just(-0.0),
            st.floats(allow_nan=False),
        ),
        max_size=60,
    )
)
def test_series_payload_matches_per_sample_comprehension(values):
    window = np.array(values, dtype=np.float64)
    got, want = _json_watts(window), reference_json_watts(window)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    # == cannot tell -0.0 from 0.0; the sign must survive too.
    assert [math.copysign(1.0, v) for v in got if v is not None] == [
        math.copysign(1.0, v) for v in want if v is not None
    ]
