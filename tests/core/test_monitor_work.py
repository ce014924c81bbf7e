"""Work gate: the invariant monitor checks a ring in one walk.

``InvariantMonitor.check`` visits each bus's hops once (DESIGN.md §9
P7): it looks every held hop's cell up in the grid's occupancy index,
advances the segment as it goes, and compares the count of held hops
with the count of occupied cells.  It no longer sorts the index, runs
the Table 1 port walk or asks each bus to validate its own shape.

This pins that in machine-independent work on the job of
``tests/core/test_compaction_work.py`` (32 nodes, k=4, 0.01
msg/node/tick for 300 ticks, then drained) at the default full
cadence.  The simulated outcome is unchanged: 1,952 checks over 212,029
held hops, drained at tick 3,904.  Inside the monitor the five separate
checks made 3,904 ``SegmentGrid.iter_occupied`` calls (two sorted scans
per check), 1,952 ``validate_ports`` calls, 26,083
``VirtualBus.validate_shape`` calls, and 212,029 calls each to
``hop_of_segment`` and ``segment_index``.  The counters below are
wrappers kept in this test.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core import RMBConfig, RMBRing, invariants, ports
from repro.core.invariants import InvariantMonitor
from repro.core.segments import SegmentGrid
from repro.core.virtual_bus import VirtualBus
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring

COUNTED = ("iter_occupied", "validate_ports", "validate_shape",
           "hop_of_segment", "segment_index")


@pytest.fixture(scope="module")
def job() -> SimpleNamespace:
    calls = dict.fromkeys(COUNTED + ("checks", "held_hops"), 0)
    in_check = [False]
    check = InvariantMonitor.check

    def checking(monitor):
        calls["checks"] += 1
        calls["held_hops"] += sum(len(bus.held_hops())
                                  for bus in monitor.buses.values())
        in_check[0] = True
        try:
            return check(monitor)
        finally:
            in_check[0] = False

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += in_check[0]
            return original(*args, **kwargs)
        return wrapper

    # The ring binds its monitor's check when it is built, so the
    # wrappers go in first.  ``validate_ports`` is counted under both
    # names a monitor could call it by.
    with mock.patch.object(InvariantMonitor, "check", checking), \
            mock.patch.object(SegmentGrid, "iter_occupied", counting(
                "iter_occupied", SegmentGrid.iter_occupied)), \
            mock.patch.object(invariants, "validate_ports", counting(
                "validate_ports", ports.validate_ports), create=True), \
            mock.patch.object(ports, "validate_ports", counting(
                "validate_ports", ports.validate_ports)), \
            mock.patch.object(VirtualBus, "validate_shape", counting(
                "validate_shape", VirtualBus.validate_shape)), \
            mock.patch.object(VirtualBus, "hop_of_segment", counting(
                "hop_of_segment", VirtualBus.hop_of_segment)), \
            mock.patch.object(VirtualBus, "segment_index", counting(
                "segment_index", VirtualBus.segment_index)):
        ring = RMBRing(RMBConfig(nodes=32, lanes=4, cycle_period=2.0),
                       seed=7)
        replay_on_ring(ring, bernoulli_schedule(
            32, 300, 0.01, 8, RandomStream(7, name="perf")))
        ring.run(300)
        ring.drain()
    return SimpleNamespace(ring=ring, calls=calls)


def test_the_simulation_is_unchanged(job):
    assert job.ring.config.check_level == "full"
    assert job.calls["checks"] == job.ring.monitor.checks_run == 1952
    assert job.calls["held_hops"] == 212029
    assert job.ring.sim.now == 3904


@pytest.mark.parametrize("name", COUNTED)
def test_the_walk_makes_no_separate_pass(job, name):
    # Was 3,904 / 1,952 / 26,083 / 212,029 / 212,029.
    assert job.calls[name] == 0
