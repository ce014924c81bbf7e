"""Direct tests for the refusal machinery: header timeout and backoff.

The ``header_timeout`` escape hatch and the exponential-backoff retry
path were previously exercised only incidentally (through congestion in
larger scenarios); these tests drive each branch explicitly with
hand-built blockades so the timing arithmetic is pinned down.
"""

from __future__ import annotations

from repro.core import BusPhase, Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy


def msg(mid, src, dst, flits=4):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits)


def blocked_column_ring(**policy) -> RMBRing:
    """A ring where segment column 2 is fully claimed by fake bus ids.

    Compaction and invariants are off (the fake ids exist nowhere else);
    a header extending from node 0 wedges in front of column 2.
    """
    config = RMBConfig(nodes=8, lanes=3, compaction_enabled=False,
                       retry=RetryPolicy(jitter=0.0, **policy),
                       check_level="off")
    ring = RMBRing(config, seed=1, trace_kinds={"header_timeout"})
    for lane in range(3):
        ring.grid.claim(2, lane, 900 + lane)
    return ring


def unblock(ring: RMBRing) -> None:
    for lane in range(3):
        ring.grid.release(2, lane, 900 + lane)


class TestHeaderTimeout:
    def test_timeout_nacks_the_partial_bus(self):
        ring = blocked_column_ring(header_timeout=16.0)
        record = ring.submit(msg(0, 0, 4))
        # Header reaches the blockade within ~3 flit ticks, then stalls
        # 16 ticks before the timeout trips.
        ring.run(30)
        assert ring.routing.timed_out == 1
        timeout_entries = ring.trace.of_kind("header_timeout")
        assert len(timeout_entries) == 1
        assert timeout_entries[0].get("hops") == 2, \
            "the bus held two segments when it gave up"
        assert record.retries == 1, "timeout must queue a retry"

    def test_timeout_frees_the_held_segments(self):
        # A long retry delay leaves a window where the released segments
        # are observably free before the re-injection claims them again.
        ring = blocked_column_ring(header_timeout=16.0, delay=64.0)
        ring.submit(msg(0, 0, 4))
        ring.run(30)
        # The Nack walk has released the partial bus segment by segment.
        assert ring.grid.occupant(0, 2) is None
        assert ring.grid.occupant(1, 2) is None

    def test_stall_ticks_accumulate_on_the_record(self):
        ring = blocked_column_ring(header_timeout=16.0)
        record = ring.submit(msg(0, 0, 4))
        ring.run(30)
        assert record.head_stall_ticks >= 16

    def test_no_timeout_when_disabled(self):
        ring = blocked_column_ring(header_timeout=None)
        ring.submit(msg(0, 0, 4))
        ring.run(300)
        assert ring.routing.timed_out == 0
        bus = next(iter(ring.buses.values()))
        assert bus.phase is BusPhase.EXTENDING, \
            "without a timeout the header waits indefinitely"

    def test_message_completes_after_blockade_clears(self):
        ring = blocked_column_ring(header_timeout=16.0, delay=8.0)
        record = ring.submit(msg(0, 0, 4))
        ring.run(30)
        unblock(ring)
        ring.drain()
        assert record.finished
        assert record.retries >= 1


class TestExponentialBackoff:
    def nacking_ring(self, **policy) -> RMBRing:
        """Destination 4's RX port is artificially exhausted: pure Nacks."""
        policy.setdefault("jitter", 0.0)
        config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(
            delay=4.0, backoff=2.0, **policy))
        ring = RMBRing(config, seed=1, trace_kinds={"inject", "abandon"})
        ring.routing._rx_active[4] = config.rx_ports
        return ring

    def inject_times(self, ring: RMBRing) -> list[float]:
        return [entry.time for entry in ring.trace.of_kind("inject")]

    def test_retry_delays_grow_exponentially(self):
        ring = self.nacking_ring()
        ring.submit(msg(0, 0, 4))
        ring.run(600)
        injects = self.inject_times(ring)
        assert len(injects) >= 4
        gaps = [b - a for a, b in zip(injects, injects[1:])]
        # Each inject-to-inject gap is a constant Nack round trip plus
        # the backoff delay.  Attempts accumulate both a Nack and a retry
        # per round, so the exponent advances by two each time: the gap
        # *growth* quadruples once the constant cancels out (modulo the
        # flit-tick rounding of the requeue).
        growth = [b - a for a, b in zip(gaps, gaps[1:])]
        assert all(step > 0 for step in growth)
        for previous, current in zip(growth, growth[1:]):
            assert 3.0 <= current / previous <= 5.0

    def test_jitter_stretches_but_never_shrinks_the_delay(self):
        base = self.nacking_ring()
        base.submit(msg(0, 0, 4))
        base.run(300)
        jittered = self.nacking_ring(jitter=0.5)
        jittered.routing._rx_active[4] = jittered.config.rx_ports
        jittered.submit(msg(0, 0, 4))
        jittered.run(300)
        base_injects = self.inject_times(base)
        jitter_injects = self.inject_times(jittered)
        assert min(len(base_injects), len(jitter_injects)) >= 2
        for deterministic, randomised in zip(base_injects[1:],
                                             jitter_injects[1:]):
            assert randomised >= deterministic

    def test_backoff_floor_restarts_the_exponent(self):
        ring = self.nacking_ring()
        record = ring.submit(msg(0, 0, 4))
        ring.run(200)
        assert record.retries >= 3
        before = len(self.inject_times(ring))
        # Forgive the accumulated attempts: the next retry delay drops
        # back to retry.delay instead of the current exponential step.
        ring.routing.reset_backoff(0)
        ring.routing._rx_active[4] = 0
        ring.drain()
        assert record.finished
        injects = self.inject_times(ring)
        assert len(injects) > before

    def test_max_retries_abandons_and_unblocks_drain(self):
        ring = self.nacking_ring(max_retries=2)
        record = ring.submit(msg(0, 0, 4))
        ring.drain()
        assert record.abandoned
        assert not record.finished
        assert record.retries == 2
        assert ring.routing.abandoned == 1
        assert len(ring.trace.of_kind("abandon")) == 1
        assert ring.routing.pending() == 0

    def test_each_attempt_nacks_at_the_destination(self):
        ring = self.nacking_ring()
        record = ring.submit(msg(0, 0, 4))
        ring.run(300)
        assert record.nacks == len(self.inject_times(ring))
        assert ring.routing.nacked == record.nacks
