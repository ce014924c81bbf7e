"""Unit tests for run statistics aggregation."""

import pytest

from repro.core.flits import Message, MessageRecord
from repro.core.stats import RunStats
from repro.sim.monitor import TimeSeries


def record(mid, created, delivered=None, established=None, completed=None,
           nacks=0, retries=0, stalls=0, flits=4):
    message = Message(mid, 0, 1, data_flits=flits, created_at=created)
    rec = MessageRecord(message=message)
    rec.established_at = established
    rec.delivered_at = delivered
    rec.completed_at = completed
    rec.nacks = nacks
    rec.retries = retries
    rec.head_stall_ticks = stalls
    return rec


def test_from_records_counts_completed_only():
    records = [
        record(0, 0.0, established=5.0, delivered=10.0, completed=12.0),
        record(1, 0.0),  # unfinished
    ]
    stats = RunStats.from_records(records, duration=100.0)
    assert stats.offered == 2
    assert stats.completed == 1
    assert stats.completion_rate == 0.5
    assert stats.latency.mean == 10.0
    assert stats.setup.mean == 5.0


def test_throughput_normalises_by_duration():
    records = [
        record(0, 0.0, established=1.0, delivered=5.0, completed=6.0,
               flits=8),
    ]
    stats = RunStats.from_records(records, duration=50.0)
    assert stats.throughput_flits_per_tick == pytest.approx(10 / 50)


def test_zero_duration_is_safe():
    stats = RunStats.from_records([], duration=0.0)
    assert stats.throughput_flits_per_tick == 0.0
    assert stats.completion_rate == 0.0


def test_percentile_over_latencies():
    records = [
        record(i, 0.0, established=1.0, delivered=float(10 + i),
               completed=float(20 + i))
        for i in range(10)
    ]
    stats = RunStats.from_records(records, duration=100.0)
    assert stats.latency_percentile(0.0) == 10.0
    assert stats.latency_percentile(1.0) == 19.0
    assert stats.latency_percentile(0.5) == pytest.approx(14.5)


def test_percentile_empty_is_zero():
    stats = RunStats.from_records([], duration=1.0)
    assert stats.latency_percentile(0.95) == 0.0


def test_nack_and_retry_counters_aggregate():
    records = [
        record(0, 0.0, nacks=2, retries=1),
        record(1, 0.0, nacks=1, retries=1),
    ]
    stats = RunStats.from_records(records, duration=10.0)
    assert stats.nacks == 3
    assert stats.retries == 2


def test_series_integration():
    utilization = TimeSeries()
    utilization.record(0.0, 0.5)
    utilization.record(10.0, 0.0)
    buses = TimeSeries()
    buses.record(0.0, 3.0)
    buses.record(5.0, 7.0)
    stats = RunStats.from_records([], duration=10.0,
                                  utilization=utilization, live_buses=buses)
    assert stats.mean_utilization() == pytest.approx(0.5)
    assert stats.peak_live_buses() == 7.0


def test_summary_has_headline_fields():
    stats = RunStats.from_records(
        [record(0, 0.0, established=2.0, delivered=8.0, completed=9.0)],
        duration=20.0,
    )
    summary = stats.summary()
    for key in ("offered", "completed", "mean_latency", "p95_latency",
                "throughput_flits_per_tick", "mean_utilization"):
        assert key in summary
    assert summary["completed"] == 1.0
