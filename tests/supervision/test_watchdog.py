"""Watchdog acceptance tests: detection windows and recovery actions."""

from __future__ import annotations

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.supervision import Watchdog
from repro.supervision.watchdog import (
    FORCE_TEARDOWN,
    HANDSHAKE_WINDOW,
    PROBE_PERIOD,
    REPORT,
    STALL_WINDOW,
)


def msg(mid, src, dst, flits=4):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits)


def stalled_ring() -> RMBRing:
    """A ring whose first message will wedge against a blocked column.

    Compaction and the invariant monitor are off because the blockade is
    three fake grid claims (bus ids that exist nowhere else); the header
    timeout is off so only the watchdog can unwedge the run.
    """
    config = RMBConfig(nodes=8, lanes=3, compaction_enabled=False,
                       retry=RetryPolicy(delay=8.0, jitter=0.0,
                                         header_timeout=None),
                       check_level="off")
    ring = RMBRing(config, seed=1, watchdog=True)
    for lane in range(3):
        ring.grid.claim(2, lane, 900 + lane)
    return ring


def release_blockade(ring: RMBRing) -> None:
    for lane in range(3):
        ring.grid.release(2, lane, 900 + lane)


class TestStalledBus:
    def test_detects_stall_within_window_and_recovers(self):
        ring = stalled_ring()
        record = ring.submit(msg(0, 0, 4))
        ring.run(STALL_WINDOW + 2 * PROBE_PERIOD)
        incident = ring.watchdog.incidents.first("stalled_bus")
        assert incident is not None, "stall never detected"
        # The header wedges within a few flit ticks; detection must land
        # within the stall window plus one probe period of that.
        assert incident.time <= 3 + STALL_WINDOW + PROBE_PERIOD
        assert incident.action == FORCE_TEARDOWN
        assert incident.subject.startswith("bus#")
        assert ring.routing.forced_teardowns >= 1
        assert record.nacks >= 1, "forced teardown must count as a Nack"
        # After the blockade clears, the retry machinery delivers.
        release_blockade(ring)
        ring.drain()
        assert record.finished
        assert not record.abandoned

    def test_stats_carry_incidents_and_teardowns(self):
        ring = stalled_ring()
        ring.submit(msg(0, 0, 4))
        ring.run(STALL_WINDOW + 2 * PROBE_PERIOD)
        release_blockade(ring)
        ring.drain()
        stats = ring.stats()
        assert stats.forced_teardowns == ring.routing.forced_teardowns
        assert stats.incidents is ring.watchdog.incidents
        assert stats.summary()["forced_teardowns"] >= 1.0
        assert stats.summary()["incidents"] >= 1.0

    def test_healthy_traffic_raises_no_incidents(self):
        config = RMBConfig(nodes=8, lanes=3)
        ring = RMBRing(config, seed=1, watchdog=True)
        ring.submit_all(msg(i, i, (i + 3) % 8) for i in range(8))
        ring.drain()
        assert len(ring.watchdog.incidents) == 0
        assert ring.routing.forced_teardowns == 0


class TestRetryStorm:
    def busy_destination_ring(self, recovery: bool = False) -> RMBRing:
        config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(
            delay=4.0, backoff=1.25, jitter=0.0))
        ring = RMBRing(config, seed=1, watchdog=True, recovery=recovery)
        # Artificially exhaust node 4's receive port: every attempt Nacks.
        ring.routing._rx_active[4] = config.rx_ports
        return ring

    def test_reset_backoff_forgives_accumulated_delay(self):
        # The watchdog reports the storm; the recovery manager acts on
        # the report by forgiving the backoff.
        ring = self.busy_destination_ring(recovery=True)
        record = ring.submit(msg(0, 0, 4))
        ring.run(600)
        incident = ring.watchdog.incidents.first("retry_storm")
        assert incident is not None
        assert incident.action == REPORT
        assert ring.recovery.stats.incidents_acted_on == 1
        assert record.backoff_floor > 0, "floor must move on reset"
        ring.routing._rx_active[4] = 0
        ring.drain()
        assert record.finished

    def test_report_action_does_not_touch_backoff(self):
        ring = self.busy_destination_ring()
        record = ring.submit(msg(0, 0, 4))
        ring.run(600)
        incident = ring.watchdog.incidents.first("retry_storm")
        assert incident is not None
        assert incident.action == REPORT
        assert record.backoff_floor == 0

    def test_same_storm_not_reported_every_probe(self):
        ring = self.busy_destination_ring()
        ring.submit(msg(0, 0, 4))
        ring.run(600)
        storms = ring.watchdog.incidents.of_condition("retry_storm")
        # Re-arms only after another eight retries, and the exponential
        # backoff spaces attempts out fast.
        assert 1 <= len(storms) <= 3


class _FrozenController:
    """A cycle-controller stand-in whose handshake never advances."""

    class _Phase:
        value = "assert_od"

    def __init__(self, index: int) -> None:
        self.index = index
        self.transitions = 7
        self.cycle = 3
        self.phase = self._Phase()


class TestHandshakeStall:
    def test_frozen_handshake_is_reported(self):
        config = RMBConfig(nodes=8, lanes=3)
        ring = RMBRing(config, seed=1)
        watchdog = Watchdog(
            ring.sim, ring.routing,
            controllers=[_FrozenController(i) for i in range(4)],
        )
        ring.run(HANDSHAKE_WINDOW + 2 * PROBE_PERIOD)
        incident = watchdog.incidents.first("handshake_stall")
        assert incident is not None
        assert incident.time <= PROBE_PERIOD + HANDSHAKE_WINDOW + PROBE_PERIOD
        assert "inc" in incident.detail

    def test_synchronous_mode_skips_the_check(self):
        config = RMBConfig(nodes=8, lanes=3)
        ring = RMBRing(config, seed=1, watchdog=True)
        assert ring.controllers is None  # synchronous: no handshake
        ring.run(HANDSHAKE_WINDOW + 2 * PROBE_PERIOD)
        assert len(ring.watchdog.incidents.of_condition("handshake_stall")) == 0

    def test_live_asynchronous_handshake_is_quiet(self):
        config = RMBConfig(nodes=8, lanes=3, synchronous=False)
        ring = RMBRing(config, seed=1, watchdog=True)
        ring.run(HANDSHAKE_WINDOW + 2 * PROBE_PERIOD)
        assert len(ring.watchdog.incidents.of_condition("handshake_stall")) == 0


class TestConfigValidation:
    def test_stop_disarms_the_probe(self):
        ring = stalled_ring()
        ring.submit(msg(0, 0, 4))
        ring.watchdog.stop()
        ring.run(STALL_WINDOW + 2 * PROBE_PERIOD)
        assert len(ring.watchdog.incidents) == 0
