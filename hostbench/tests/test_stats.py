import statistics

import pytest

from hostbench import stats


@pytest.mark.parametrize("n, q", [
    (10_000, 99.9),   # 10 beyond p99.9
    (9_999, 99.0),
    (1_000, 99.0),    # 10 beyond p99
    (999, 95.0),
    (200, 95.0),
    (199, 90.0),
    (100, 90.0),
    (40, 75.0),
    (39, 50.0),
    (1, 50.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    assert stats.tail_percentile(n) == q
    if q != 50.0:
        assert round(n * (100 - q) / 100, 6) >= stats.MIN_BEYOND


def test_tail_reports_percentile_and_value():
    values = [float(v) for v in range(1, 1001)]
    q, value = stats.tail(values)
    assert q == 99.0
    assert value == pytest.approx(stats.percentile(values, 99.0))
    assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartiles_and_spread_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.spread(values) == (q3 - q1) / median
