import pytest

from servebench.stats import MIN_BEYOND, median, nearest_rank, tail_percentile


def test_p95_needs_ten_samples_beyond_it():
    supported = tail_percentile(range(1, 201))
    assert supported.value == 190
    assert supported.n_beyond == MIN_BEYOND
    assert supported.n == 200
    assert supported.supported

    short = tail_percentile(range(1, 200))
    assert short.n_beyond == 9
    assert not short.supported


def test_nearest_rank_is_exact_at_integer_products():
    # 0.95 * 20 is 19.000000000000004 in binary floating point.
    assert nearest_rank(0.95, 20) == 19
    assert nearest_rank(0.95, 21) == 20
    assert nearest_rank(0.5, 1) == 1
    assert nearest_rank(1.0, 7) == 7


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert tail_percentile(values, 0.8).value == 4.0
    assert tail_percentile(values, 0.8).n_beyond == 1


@pytest.mark.parametrize("q", [0.0, 1.5, -0.1])
def test_quantile_out_of_range_is_rejected(q):
    with pytest.raises(ValueError):
        nearest_rank(q, 10)


def test_median():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])
