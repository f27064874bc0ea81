import pytest

from perfbench.stats import highest_percentile, percentile, relative_iqr, windowed_rate


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert highest_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(list(range(101)), 95) == 95.0


def test_percentile_of_failures_is_infinite():
    assert percentile([1.0, float("inf")], 100) == float("inf")


def test_relative_iqr():
    assert relative_iqr([10.0] * 10) == 0.0
    assert relative_iqr([9.0, 10.0, 10.0, 11.0]) > 0


def test_windowed_rate_takes_the_median_window():
    # Windows of 2 completions: 1 s, 1 s, then a 10 s stall; the stall
    # moves one window, not the median; the odd last completion drops.
    done = [0.5, 1.0, 1.5, 2.0, 7.0, 12.0, 12.1]
    assert windowed_rate(done, 0.0, 2) == pytest.approx(2.0)
    assert windowed_rate([1.0, 2.0], 0.0, 5) == pytest.approx(1.0)
