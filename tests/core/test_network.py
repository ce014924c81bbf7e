"""Integration tests for the RMBRing facade."""

import pytest

from repro.core import Message, RMBConfig, RMBRing, max_neighbour_skew
from repro.errors import ProtocolError


def batch(ring_size, count, flits=6):
    return [
        Message(message_id=index, source=index % ring_size,
                destination=(index + ring_size // 2) % ring_size,
                data_flits=flits)
        for index in range(count)
    ]


def test_drain_completes_everything():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit_all(batch(8, 8))
    ring.drain()
    stats = ring.stats()
    assert stats.completed == 8
    assert stats.completion_rate == 1.0


def test_probes_record_utilization_and_buses():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0, probe_period=2.0)
    ring.submit_all(batch(8, 6, flits=20))
    ring.drain()
    stats = ring.stats()
    assert stats.mean_utilization() > 0.0
    assert stats.peak_live_buses() >= 2.0


def test_invariants_checked_during_run():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit_all(batch(8, 4))
    ring.drain()
    assert ring.monitor is not None
    assert ring.monitor.checks_run > 0


def test_asynchronous_mode_completes_with_lemma1():
    config = RMBConfig(nodes=8, lanes=3, synchronous=False)
    ring = RMBRing(config, seed=7)
    ring.submit_all(batch(8, 8, flits=10))
    ring.drain()
    assert ring.stats().completed == 8
    assert ring.controllers is not None
    assert max_neighbour_skew(ring.controllers) <= 1
    assert ring.cycle_count() > 0


def test_deterministic_given_seed():
    def run():
        ring = RMBRing(RMBConfig(nodes=8, lanes=2), seed=99)
        ring.submit_all(batch(8, 8, flits=12))
        ring.drain()
        return [
            (record.message.message_id, record.latency())
            for record in ring.routing.records.values()
        ]

    assert run() == run()


def test_different_seeds_same_totals():
    # Seeds only affect retry jitter / clocks, not delivery guarantees.
    for seed in (1, 2):
        ring = RMBRing(RMBConfig(nodes=8, lanes=2), seed=seed)
        ring.submit_all(batch(8, 8))
        ring.drain()
        assert ring.stats().completed == 8


def test_drain_raises_on_livelock_budget():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit_all(batch(8, 4, flits=5000))
    with pytest.raises(ProtocolError):
        ring.drain(max_ticks=50)


def test_check_now_builds_monitor_on_demand():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, check_level="off"), seed=0)
    assert ring.monitor is None
    ring.check_now()
    assert ring.monitor is not None


def test_trace_kinds_filtering():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0,
                   trace_kinds={"inject"})
    ring.submit_all(batch(8, 3))
    ring.drain()
    kinds = {entry.kind for entry in ring.trace}
    assert kinds == {"inject"}


def test_shared_simulator_runs_two_rings_together():
    from repro.core.network import RingClock
    from repro.sim import Simulator

    clock = RingClock(Simulator(), "pair")
    left = RMBRing(RMBConfig(nodes=8, lanes=2), seed=0, clock=clock, name="l")
    right = RMBRing(RMBConfig(nodes=8, lanes=2), seed=1, clock=clock,
                    name="r")
    assert left.sim is right.sim is clock.sim
    left.submit(Message(0, 0, 4, data_flits=4))
    right.submit(Message(0, 2, 6, data_flits=4))
    clock.sim.run(until=300)
    assert left.routing.completed == 1
    assert right.routing.completed == 1
