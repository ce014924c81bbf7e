"""Unit tests for the routing protocol engine (Section 2.2/2.3)."""

import pytest

from repro.core import BusPhase, Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.errors import RoutingError
from tests.conftest import make_ring


def msg(mid, src, dst, flits=4, created=0.0):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits, created_at=created)


class TestAdmission:
    def test_injection_uses_top_lane(self):
        ring = make_ring(nodes=8, lanes=3)
        ring.submit(msg(0, 0, 4))
        ring.run(1)  # first flit tick
        bus = next(iter(ring.buses.values()))
        assert bus.hops == [2], "HF must enter on the top lane"
        assert ring.grid.occupant(0, 2) == bus.bus_id

    def test_busy_top_lane_delays_injection(self):
        # Compaction off: the first bus stays on the top lane and the
        # second request from the same region must wait for teardown.
        ring = make_ring(nodes=8, lanes=3, compaction_enabled=False)
        ring.submit(msg(0, 0, 4, flits=30))
        ring.run(3)
        ring.submit(msg(1, 0, 4, flits=2))
        ring.run(3)
        records = ring.routing.records
        assert records[0].injected_at is not None
        assert records[1].injected_at is None
        ring.drain()
        assert records[1].injected_at > records[0].injected_at

    def test_one_transmission_per_node(self):
        ring = make_ring(nodes=8, lanes=3)
        ring.submit(msg(0, 0, 4, flits=20))
        ring.submit(msg(1, 0, 5, flits=2))
        ring.run(4)
        live_sources = [bus.source for bus in ring.buses.values()]
        assert live_sources.count(0) == 1
        ring.drain()
        assert ring.routing.completed == 2

    def test_duplicate_message_id_rejected(self):
        ring = make_ring()
        ring.submit(msg(0, 0, 4))
        with pytest.raises(RoutingError):
            ring.submit(msg(0, 1, 5))

    def test_endpoint_validation(self):
        ring = make_ring(nodes=8)
        with pytest.raises(RoutingError):
            ring.submit(msg(0, 0, 99))


class TestDelivery:
    def test_single_message_lifecycle_timestamps(self):
        ring = make_ring(nodes=8, lanes=3)
        record = ring.submit(msg(0, 1, 5, flits=6))
        ring.drain()
        assert record.injected_at is not None
        assert record.established_at > record.injected_at
        assert record.delivered_at > record.established_at
        assert record.completed_at > record.delivered_at
        assert record.nacks == 0

    def test_latency_scales_with_span(self):
        short_ring = make_ring(nodes=16, lanes=3)
        near = short_ring.submit(msg(0, 0, 1, flits=8))
        short_ring.drain()
        far_ring = make_ring(nodes=16, lanes=3)
        far = far_ring.submit(msg(0, 0, 13, flits=8))
        far_ring.drain()
        assert far.latency() > near.latency()

    def test_setup_pays_round_trip(self):
        # Established only after HF out (span) + Hack back (span).
        ring = make_ring(nodes=12, lanes=2)
        record = ring.submit(msg(0, 0, 6, flits=0))
        ring.drain()
        span = 6
        assert record.setup_time() >= 2 * span

    def test_zero_data_flit_message_completes(self):
        ring = make_ring(nodes=8, lanes=2)
        record = ring.submit(msg(0, 2, 3, flits=0))
        ring.drain()
        assert record.finished

    def test_all_segments_freed_after_completion(self):
        ring = make_ring(nodes=8, lanes=3)
        ring.submit(msg(0, 0, 5, flits=4))
        ring.submit(msg(1, 3, 7, flits=4))
        ring.drain()
        assert ring.grid.occupied_segments() == 0
        assert not ring.buses

    def test_flit_conservation(self):
        ring = make_ring(nodes=8, lanes=3)
        total = 0
        for index, (source, dest, flits) in enumerate(
                [(0, 4, 3), (1, 6, 9), (5, 2, 0)]):
            ring.submit(msg(index, source, dest, flits=flits))
            total += flits + 2
        ring.drain()
        assert ring.routing.flits_delivered == total


class TestNackAndRetry:
    def test_receiver_conflict_nacks_then_retries(self):
        # Two senders to one destination: the one arriving while the
        # receiver is busy is refused, retried, and eventually delivered.
        ring = make_ring(nodes=8, lanes=3)
        ring.submit(msg(0, 3, 4, flits=80))   # span 1: grabs RX quickly
        ring.run(8)
        ring.submit(msg(1, 1, 4, flits=4))    # arrives to a busy receiver
        ring.drain()
        records = ring.routing.records
        assert records[0].finished and records[1].finished
        assert ring.routing.nacked >= 1
        assert records[1].nacks + records[1].retries >= 1

    def test_nack_releases_all_segments(self):
        ring = make_ring(nodes=8, lanes=3)
        ring.submit(msg(0, 0, 4, flits=60))
        ring.submit(msg(1, 1, 4, flits=60))
        # Run long enough for the Nack teardown but not for completion.
        ring.run(60)
        # At most two live buses; any refused bus holds nothing.
        for bus in ring.buses.values():
            assert bus.phase is not BusPhase.REFUSED
        ring.drain()
        assert ring.grid.occupied_segments() == 0

    def test_max_retries_abandons(self):
        ring = make_ring(nodes=8, lanes=3,
                         retry=RetryPolicy(jitter=0.0, max_retries=0))
        ring.submit(msg(0, 3, 4, flits=500))  # span 1: holds RX for ages
        ring.run(8)
        ring.submit(msg(1, 1, 4, flits=1))    # Nacked once, then abandoned
        ring.run(2000)
        assert ring.routing.abandoned == 1
        records = ring.routing.records
        assert not records[1].finished


class TestHeaderTimeout:
    def test_full_network_times_out_and_recovers(self):
        # One lane, three long mutually-overlapping messages: partial
        # circuits can block each other; the timeout must recover and all
        # messages must ultimately deliver (liveness).
        ring = make_ring(nodes=12, lanes=1,
                         retry=RetryPolicy(header_timeout=32.0),
                         cycle_period=2.0)
        ring.submit(msg(0, 0, 8, flits=30))
        ring.submit(msg(1, 4, 0, flits=30))
        ring.submit(msg(2, 8, 4, flits=30))
        ring.drain(max_ticks=200_000)
        assert ring.routing.completed == 3
        assert ring.grid.occupied_segments() == 0


class TestStatistics:
    def test_pending_counts_queued_and_inflight(self):
        ring = make_ring(nodes=8, lanes=3)
        assert ring.routing.pending() == 0
        ring.submit(msg(0, 0, 4, flits=10))
        ring.submit(msg(1, 0, 5, flits=10))
        assert ring.routing.pending() == 2
        ring.run(3)
        assert ring.routing.pending() == 2  # one flying, one queued
        ring.drain()
        assert ring.routing.pending() == 0

    def test_lanes_visited_records_compaction_path(self):
        ring = make_ring(nodes=8, lanes=4)
        record = ring.submit(msg(0, 0, 6, flits=40))
        ring.drain()
        assert 3 in record.lanes_visited      # injected at the top
        assert min(record.lanes_visited) < 3  # compacted downwards
