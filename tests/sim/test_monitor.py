"""Unit tests for the measurement accumulators."""

import math

import pytest

from repro.sim import (
    Tally,
    TimeSeries,
    percentile,
)


def test_tally_mean_and_extremes():
    tally = Tally()
    for value in [1.0, 2.0, 3.0, 4.0]:
        tally.add(value)
    assert tally.mean == pytest.approx(2.5)
    assert tally.minimum == 1.0
    assert tally.maximum == 4.0
    assert tally.total == 10.0
    assert tally.count == 4


def test_tally_variance_matches_textbook():
    tally = Tally()
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    for value in values:
        tally.add(value)
    mean = sum(values) / len(values)
    expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert tally.variance == pytest.approx(expected)
    assert tally.stddev == pytest.approx(math.sqrt(expected))


def test_empty_tally_is_safe():
    tally = Tally()
    assert tally.mean == 0.0
    assert tally.variance == 0.0
    assert tally.summary()["count"] == 0


def test_tally_merge_equals_combined_stream():
    left, right, combined = Tally(), Tally(), Tally()
    for value in [1.0, 5.0, 2.0]:
        left.add(value)
        combined.add(value)
    for value in [8.0, 3.0]:
        right.add(value)
        combined.add(value)
    left.merge(right)
    assert left.count == combined.count
    assert left.mean == pytest.approx(combined.mean)
    assert left.variance == pytest.approx(combined.variance)
    assert left.minimum == combined.minimum
    assert left.maximum == combined.maximum


def test_tally_merge_with_empty():
    tally = Tally()
    tally.add(3.0)
    tally.merge(Tally())
    assert tally.count == 1
    empty = Tally()
    empty.merge(tally)
    assert empty.mean == 3.0


def test_time_series_requires_order():
    series = TimeSeries()
    series.record(1.0, 5.0)
    with pytest.raises(ValueError):
        series.record(0.5, 1.0)


def test_time_series_time_average_step_function():
    series = TimeSeries()
    series.record(0.0, 2.0)   # value 2 for 10 units
    series.record(10.0, 6.0)  # value 6 for 10 units
    series.record(20.0, 0.0)
    assert series.time_average() == pytest.approx((2 * 10 + 6 * 10) / 20)


def test_time_series_peak_and_last():
    series = TimeSeries()
    assert series.last() is None
    series.record(0.0, 1.0)
    series.record(1.0, 9.0)
    series.record(2.0, 4.0)
    assert series.peak() == 9.0
    assert series.last() == 4.0


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_percentile_single_value():
    assert percentile([7.0], 0.37) == 7.0
