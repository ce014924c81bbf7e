"""Soak invariant monitors: they must catch the lie and spare the truth."""

from __future__ import annotations

from repro.chaos import (
    ConservationMonitor,
    MonitorSuite,
    SkewMonitor,
    StuckBusMonitor,
    Violation,
)
from repro.chaos.monitors import STUCK_WINDOW
from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy


def healthy_ring(asynchronous=False) -> RMBRing:
    config = RMBConfig(nodes=8, lanes=3, synchronous=not asynchronous)
    return RMBRing(config, seed=2)


class TestConservationMonitor:
    def test_clean_ring_passes(self):
        ring = healthy_ring()
        ring.submit_all(Message(i, i, (i + 3) % 8, data_flits=2)
                        for i in range(6))
        monitor = ConservationMonitor(ring.routing)
        assert monitor.check(ring.sim.now) is None
        ring.drain()
        assert monitor.check(ring.sim.now) is None

    def test_cooked_books_are_caught(self):
        ring = healthy_ring()
        records = ring.submit_all(Message(i, i, (i + 3) % 8, data_flits=2)
                                  for i in range(4))
        ring.drain()
        monitor = ConservationMonitor(ring.routing)
        # Falsify one terminal record: delivered, but now claiming it is
        # neither finished nor abandoned nor shed nor pending.
        records[0].completed_at = None
        violation = monitor.check(ring.sim.now)
        assert violation is not None
        assert violation.monitor == "conservation"
        assert "offered=4" in violation.detail


class TestStuckBusMonitor:
    def test_live_traffic_is_not_stuck(self):
        ring = healthy_ring()
        ring.submit_all(Message(i, i, (i + 3) % 8, data_flits=4)
                        for i in range(6))
        monitor = StuckBusMonitor(ring.routing)
        for _ in range(30):
            ring.run(10)
            assert monitor.check(ring.sim.now) is None
        ring.drain()

    def test_frozen_bus_is_reported_after_window(self):
        # Blockade wedges the bus; header_timeout off keeps it frozen.
        config = RMBConfig(nodes=8, lanes=3, compaction_enabled=False,
                           retry=RetryPolicy(header_timeout=None),
                           check_level="off")
        ring = RMBRing(config, seed=1)
        for lane in range(3):
            ring.grid.claim(2, lane, 900 + lane)
        ring.submit(Message(0, 0, 4, data_flits=2))
        monitor = StuckBusMonitor(ring.routing)
        ring.run(10)
        assert monitor.check(ring.sim.now) is None  # establishes the mark
        ring.run(STUCK_WINDOW - 1)
        assert monitor.check(ring.sim.now) is None
        ring.run(1)
        violation = monitor.check(ring.sim.now)
        assert violation is not None
        assert violation.monitor == "stuck_bus"
        assert "bus#" in violation.detail

    def test_marks_are_dropped_with_their_bus(self):
        ring = healthy_ring()
        ring.submit(Message(0, 0, 4, data_flits=2))
        monitor = StuckBusMonitor(ring.routing)
        ring.run(2)
        monitor.check(ring.sim.now)
        ring.drain()
        monitor.check(ring.sim.now)
        assert monitor._marks == {}


class _FakeController:
    def __init__(self, index, cycle):
        self.index = index
        self.cycle = cycle


class TestSkewMonitor:
    def test_lemma1_holds(self):
        controllers = [_FakeController(i, 10 + (i % 2)) for i in range(6)]
        assert SkewMonitor(controllers).check(0.0) is None

    def test_excess_skew_is_reported(self):
        controllers = [_FakeController(i, 10) for i in range(6)]
        controllers[3].cycle = 12
        violation = SkewMonitor(controllers).check(5.0)
        assert violation is not None
        assert violation.monitor == "lemma1_skew"
        assert "skew 2" in violation.detail

    def test_dropped_incs_are_skipped_live(self):
        controllers = [_FakeController(i, 10) for i in range(6)]
        controllers[3].cycle = 99          # parked by the fault layer
        dropped = set()
        monitor = SkewMonitor(controllers, dropped=dropped)
        assert monitor.check(0.0) is not None
        dropped.add(3)                     # membership read at check time
        assert monitor.check(0.0) is None

    def test_fewer_than_two_alive_is_vacuous(self):
        controllers = [_FakeController(0, 10), _FakeController(1, 99)]
        monitor = SkewMonitor(controllers, dropped={1})
        assert monitor.check(0.0) is None


class TestMonitorSuite:
    def test_clean_run_reports_clean(self):
        ring = healthy_ring()
        suite = MonitorSuite(ring)
        ring.submit_all(Message(i, i, (i + 3) % 8, data_flits=2)
                        for i in range(4))
        suite.check()
        ring.drain()
        suite.check()
        suite.check_structural()
        assert suite.clean
        assert suite.checks_run == 2
        assert "all invariants held" in suite.report()

    def test_async_ring_arms_the_skew_monitor(self):
        suite = MonitorSuite(healthy_ring(asynchronous=True))
        assert any(isinstance(monitor, SkewMonitor)
                   for monitor in suite.monitors)
        # The synchronous ring has no per-INC controllers to watch.
        suite = MonitorSuite(healthy_ring())
        assert not any(isinstance(monitor, SkewMonitor)
                       for monitor in suite.monitors)

    def test_violations_accumulate_without_raising(self):
        ring = healthy_ring()
        records = ring.submit_all(Message(i, i, (i + 3) % 8, data_flits=2)
                                  for i in range(4))
        ring.drain()
        records[0].completed_at = None     # cook the books
        suite = MonitorSuite(ring)
        suite.check()
        suite.check()
        assert len(suite.violations) == 2  # recorded, run kept going
        assert not suite.clean
        assert "conservation" in suite.report()

    def test_violation_renders_with_time_and_monitor(self):
        violation = Violation(time=123.0, monitor="conservation",
                              detail="gap of 1")
        assert "123.0" in str(violation)
        assert "conservation" in str(violation)
