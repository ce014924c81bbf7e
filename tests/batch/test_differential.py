"""Differential conformance: the event backend is the batch oracle.

Every case replays one fixed-seed Bernoulli workload through both
backends and requires *bit-identical* results — the full stats summary,
the final grid signature (occupancy, health, structural counters), the
finish time, every per-message record digest, and the probe/compaction
series.  Anything weaker would let the vectorized engine drift from the
protocol tables one rounding decision at a time.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchRing, replay_on_batch
from repro.core import RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.core.status import PortHealth
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring

#: Bounded retry keeps saturated cases from retrying unboundedly long.
BOUNDED = RetryPolicy(delay=8.0, backoff=1.4, jitter=0.5, max_retries=8)


def record_digest(record):
    return (
        record.message.message_id, record.injected_at,
        record.established_at, record.delivered_at, record.completed_at,
        record.nacks, record.fault_nacks, record.fault_kills,
        record.retries, record.head_stall_ticks, record.abandoned,
        tuple(sorted(record.lanes_visited)), record.first_fault_at,
        record.backoff_floor,
    )


def make_schedule(config, seed, rate, duration, data_flits=4):
    rng = RandomStream(seed, name="diff")
    return bernoulli_schedule(config.nodes, duration, rate, data_flits, rng)


def run_both(config, seed, rate, duration, probe_period, faults=()):
    event = RMBRing(config, seed=seed, probe_period=probe_period)
    batch = BatchRing(config, seed=seed, probe_period=probe_period)
    for segment, lane, health in faults:
        event.grid.set_health(segment, lane, health)
        batch.set_health(segment, lane, health)
    replay_on_ring(event, make_schedule(config, seed, rate, duration))
    replay_on_batch(batch, make_schedule(config, seed, rate, duration))
    event.run(duration)
    event.drain(max_ticks=500_000)
    batch.run(duration)
    batch.drain(max_ticks=500_000)
    return event, batch


def assert_identical(event, batch):
    summary_event = event.stats().summary()
    summary_batch = batch.stats().summary()
    assert summary_event == summary_batch, {
        key: (summary_event[key], summary_batch[key])
        for key in summary_event
        if summary_event.get(key) != summary_batch.get(key)
    }
    assert event.grid.state_signature() == batch.grid_signature()
    assert event.sim.now == batch.now
    event_records = {message_id: record_digest(record)
                     for message_id, record in event.routing.records.items()}
    batch_records = {message_id: record_digest(record)
                     for message_id, record in batch.records.items()}
    assert event_records == batch_records
    assert event.utilization.times == batch.utilization.times
    assert event.utilization.values == batch.utilization.values
    assert event.live_buses.times == batch.live_buses.times
    assert event.live_buses.values == batch.live_buses.values
    compaction_event = event.compaction.stats
    compaction_batch = batch.compaction_stats
    assert compaction_event.moves == compaction_batch.moves
    assert compaction_event.cycles_run == compaction_batch.cycles_run
    assert (compaction_event.condition_counts
            == compaction_batch.condition_counts)


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
def test_fault_free_backends_agree(seed):
    """Eleven fixed seeds on one mid-load geometry (acceptance floor:
    identical results for at least 10 fixed seeds)."""
    config = RMBConfig(nodes=8, lanes=3, cycle_period=2.0, retry=BOUNDED)
    event, batch = run_both(config, seed, rate=0.08, duration=100,
                            probe_period=8)
    assert_identical(event, batch)
    assert batch.stats().completed > 0


@pytest.mark.parametrize("seed,rate", [(7, 0.05), (11, 0.12)])
def test_static_fault_backends_agree(seed, rate):
    faults = [(2, 1, PortHealth.DEAD), (5, 0, PortHealth.DYING)]
    config = RMBConfig(nodes=10, lanes=3, cycle_period=2.0, retry=BOUNDED)
    event, batch = run_both(config, seed, rate, duration=120,
                            probe_period=8, faults=faults)
    assert_identical(event, batch)


def test_dead_column_backends_agree():
    """A fully dead column forces the F3 fault-NACK path on both sides."""
    faults = [(4, lane, PortHealth.DEAD) for lane in range(3)]
    config = RMBConfig(nodes=10, lanes=3, cycle_period=2.0, retry=BOUNDED)
    event, batch = run_both(config, 17, rate=0.08, duration=120,
                            probe_period=8, faults=faults)
    assert_identical(event, batch)


def test_dead_reach_backends_agree():
    """Lane 0 of the column survives, but a header on the top lane can
    reach only lanes 1 and 2 there: the F3 fault-NACK path on both sides."""
    faults = [(4, lane, PortHealth.DEAD) for lane in (1, 2)]
    config = RMBConfig(nodes=10, lanes=3, cycle_period=2.0, retry=BOUNDED)
    event, batch = run_both(config, 17, rate=0.08, duration=120,
                            probe_period=8, faults=faults)
    assert event.stats().fault_nacks > 0
    assert_identical(event, batch)


def test_no_compaction_backends_agree():
    config = RMBConfig(nodes=10, lanes=3, cycle_period=1.0, retry=BOUNDED,
                       compaction_enabled=False)
    event, batch = run_both(config, 23, rate=0.10, duration=100,
                            probe_period=8)
    assert_identical(event, batch)


def test_probe_every_tick_backends_agree():
    config = RMBConfig(nodes=8, lanes=2, cycle_period=2.0, retry=BOUNDED)
    event, batch = run_both(config, 29, rate=0.08, duration=80,
                            probe_period=1)
    assert_identical(event, batch)


def test_no_probes_backends_agree():
    config = RMBConfig(nodes=8, lanes=3, cycle_period=3.0, retry=BOUNDED)
    event, batch = run_both(config, 31, rate=0.06, duration=100,
                            probe_period=None)
    assert_identical(event, batch)


def test_custom_timeout_backends_agree():
    config = RMBConfig(nodes=12, lanes=3, cycle_period=2.0,
                       retry=RetryPolicy(delay=6.0, backoff=1.5, jitter=0.3,
                                         max_retries=4, header_timeout=24.0))
    event, batch = run_both(config, 37, rate=0.15, duration=100,
                            probe_period=None)
    assert_identical(event, batch)
