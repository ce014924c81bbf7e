"""Integration tests that exercise the paper's headline claims end to end.

Each test corresponds to an experiment id from DESIGN.md section 5 and is
the in-suite (fast) counterpart of a benchmark in ``benchmarks/``.
"""

import pytest

from repro.core import (
    BusPhase,
    Message,
    RMBConfig,
    RMBRing,
    max_neighbour_skew,
)
from repro.traffic import (
    max_ring_load,
    ring_shift,
    worst_case_virtual_buses,
)


def batch_from_pairs(pairs, flits=8):
    return [Message(i, s, d, data_flits=flits)
            for i, (s, d) in enumerate(pairs)]


def many_short_messages(nodes):
    """The other end of E15: ``N`` single-segment messages, which load
    every segment exactly once."""
    return [(i, (i + 1) % nodes) for i in range(nodes)]


class TestE2TopLaneEntryAndPacking:
    """Figures 2/3: entry at the top, compaction packs downwards."""

    def test_bus_enters_top_and_sinks(self):
        ring = RMBRing(RMBConfig(nodes=8, lanes=4, cycle_period=2.0), seed=0)
        record = ring.submit(Message(0, 0, 5, data_flits=60))
        ring.run(40)
        bus = next(iter(ring.buses.values()))
        assert 3 in record.lanes_visited          # entered at the top lane
        assert all(lane == 0 for lane in bus.hops)  # fully packed down
        ring.drain()

    def test_top_lane_freed_while_message_still_running(self):
        ring = RMBRing(RMBConfig(nodes=8, lanes=4, cycle_period=2.0), seed=0)
        ring.submit(Message(0, 0, 5, data_flits=200))
        ring.run(40)
        assert len(ring.buses) == 1
        top = ring.config.top_lane
        assert all(ring.grid.is_free(segment, top) for segment in range(8)), \
            "compaction must release the top lane during the transfer"
        ring.drain()


class TestE3MakeBeforeBreak:
    """Figure 4: a moving virtual bus is never disconnected, and the data
    stream is unaffected by compaction (delivery counts are exact)."""

    def test_transfer_survives_continuous_compaction(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=4, cycle_period=1.0), seed=0)
        # Staggered long messages force repeated compaction during flight.
        for index in range(6):
            ring.submit(Message(index, index * 2, (index * 2 + 7) % 12,
                                data_flits=50))
        ring.drain()
        stats = ring.stats()
        assert stats.completed == 6
        assert ring.monitor.checks_run > 0  # connectivity checked live


class TestE8Theorem1:
    """Theorem 1: requests are served whenever lane capacity exists, and
    concurrent transactions never interfere."""

    def test_load_k_permutation_runs_fully_concurrently(self):
        # k messages, every segment load <= k: all circuits must be able to
        # establish without any Nack or stall-timeout.
        nodes, k = 12, 3
        pairs = [(0, 4), (4, 8), (8, 0)]  # disjoint arcs, load 1
        assert max_ring_load(pairs, nodes) == 1
        ring = RMBRing(RMBConfig(nodes=nodes, lanes=k), seed=0)
        ring.submit_all(batch_from_pairs(pairs, flits=30))
        ring.run(12)
        assert len(ring.buses) == 3, "all three circuits live concurrently"
        ring.drain()
        stats = ring.stats()
        assert stats.nacks == 0
        assert ring.routing.timed_out == 0

    def test_full_ring_shift_with_single_lane(self):
        # N unit-span messages, load exactly 1 everywhere: one lane carries
        # all of them simultaneously.
        nodes = 10
        pairs = [(i, (i + 1) % nodes) for i in range(nodes)]
        ring = RMBRing(RMBConfig(nodes=nodes, lanes=1), seed=0)
        ring.submit_all(batch_from_pairs(pairs, flits=20))
        ring.run(8)
        assert len(ring.buses) == nodes
        ring.drain()
        assert ring.stats().completed == nodes
        assert ring.stats().nacks == 0


class TestE15VirtualBusCount:
    """Concluding remark: an RMB with k lanes is not a k-bus system."""

    def test_one_lane_carries_n_concurrent_virtual_buses(self):
        nodes = 12
        pairs = many_short_messages(nodes)
        ring = RMBRing(RMBConfig(nodes=nodes, lanes=1), seed=0,
                       probe_period=2.0)
        ring.submit_all(batch_from_pairs(pairs, flits=30))
        ring.run(10)
        live = ring.routing.live_bus_count()
        assert live == nodes, (
            f"a 1-lane RMB should carry {nodes} unit-span virtual buses "
            f"concurrently, saw {live}"
        )
        ring.drain()

    def test_worst_case_k_full_length_buses(self):
        nodes, k = 10, 3
        pairs = worst_case_virtual_buses(nodes, k)
        ring = RMBRing(RMBConfig(nodes=nodes, lanes=k, cycle_period=2.0),
                       seed=0)
        ring.submit_all(batch_from_pairs(pairs, flits=60))
        ring.run(nodes * 4)
        # Exactly k virtual buses, each spanning N-1 segments.
        live = [bus for bus in ring.buses.values() if bus.alive]
        assert len(live) == k
        assert all(len(bus.hops) == nodes - 1 for bus in live)
        ring.drain(max_ticks=500_000)


class TestE7Lemma1EndToEnd:
    def test_async_traffic_respects_cycle_skew_bound(self):
        config = RMBConfig(nodes=10, lanes=3, synchronous=False,
                           clock_drift=0.05, clock_jitter_fraction=0.1)
        ring = RMBRing(config, seed=3)
        ring.submit_all(batch_from_pairs(
            [(i, (i + 4) % 10) for i in range(10)], flits=16))
        for _ in range(30):
            ring.run(16)
            assert max_neighbour_skew(ring.controllers) <= 1
        ring.drain()
        assert ring.stats().completed == 10


class TestE17CompactionAblation:
    """Section 2.3: compaction releases the top bus 'as soon as possible',
    alleviating insertion delay — switching it off must hurt."""

    def test_compaction_reduces_makespan_under_insertion_pressure(self):
        # One long transfer crosses the whole ring on the top lane; later
        # senders underneath it can only inject once the top lane at their
        # column is free.  With compaction the long bus sinks immediately;
        # without it, they wait for the teardown.
        def run(enabled):
            config = RMBConfig(nodes=8, lanes=4, cycle_period=2.0,
                               compaction_enabled=enabled)
            ring = RMBRing(config, seed=0)
            ring.submit(Message(0, 0, 7, data_flits=300))
            ring.run(10)
            for index in range(1, 7):
                ring.submit(Message(index, index, (index + 2) % 8,
                                    data_flits=5))
            ring.drain(max_ticks=500_000)
            records = ring.routing.records
            return max(records[i].injected_at for i in range(1, 7))

        with_compaction = run(True)
        without_compaction = run(False)
        assert with_compaction < without_compaction

    def test_without_compaction_buses_stay_on_top_lane(self):
        config = RMBConfig(nodes=8, lanes=4, compaction_enabled=False)
        ring = RMBRing(config, seed=0)
        record = ring.submit(Message(0, 0, 5, data_flits=40))
        ring.drain()
        assert record.lanes_visited == {3}
