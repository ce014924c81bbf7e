"""Work gates: a fabric's rings share one clock, and idle rings skip work.

The rings on one simulator share one :class:`RingClock`: one kernel
event per tick runs every member's flit tick, and one per cycle period
runs every synchronous member's compaction cycle (DESIGN.md §9 P9).  An
idle ring (no bus, no ready node, nothing held for admission to
release) only counts its header pass and its cycle.

The counts below are exact.  An idle ``HierRMB`` of five rings ran 2,400
kernel events in 320 ticks when every member had its own flit, cycle
and invariant events; an idle flat ring's events do not change.  The
pass counters are wrappers kept in this test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.core.compaction import CompactionEngine
from repro.core.routing import RoutingEngine
from repro.hier import HierRMB

#: The passes an idle ring's tick and cycle skip, by owner.
_SKIPPED = {
    RoutingEngine: ("_advance_signals", "_advance_streams",
                    "_advance_headers", "_admit"),
    CompactionEngine: ("_candidates_incremental",),
}


@contextmanager
def counting_passes() -> Iterator[dict[str, int]]:
    calls = {name: 0 for names in _SKIPPED.values() for name in names}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(engine, *args):
            calls[name] += 1
            return original(engine, *args)
        return wrapper

    patches = [mock.patch.object(owner, name, counted(owner, name))
               for owner, names in _SKIPPED.items() for name in names]
    for patch in patches:
        patch.start()
    try:
        yield calls
    finally:
        for patch in patches:
            patch.stop()


def test_an_idle_fabric_pays_one_flit_and_one_cycle_event_per_period():
    fabric = HierRMB(locals=4, nodes_per_local=4, lanes=4, seed=0)
    assert fabric.rings["local0"].config.cycle_period == 4.0
    fabric.run(320)
    # 320 flit ticks and 80 cycles on the clock, and each of the five
    # members' 80 invariant checks.
    assert fabric.sim.events_executed == 320 + 80 + 5 * 80
    assert all(ring.routing._passes == 320 and ring.cycle_count() == 80
               for ring in fabric.rings.values())


def test_an_idle_flat_ring_keeps_its_events():
    ring = RMBRing(RMBConfig(nodes=16, lanes=4, cycle_period=2.0))
    ring.run(320)
    assert ring.sim.events_executed == 320 + 160 + 160


@pytest.mark.parametrize("admission_limit", [None, 1])
def test_an_idle_ring_runs_no_pass(admission_limit):
    """A drained ring, admission-limited or not, counts its header
    passes and cycles without running a pass."""
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, cycle_period=2.0,
                             admission_limit=admission_limit))
    ring.submit_all(Message(i, 0, 4, data_flits=2) for i in range(3))
    ring.drain()
    admission = ring.routing.admission
    assert admission.deferred == (2 if admission_limit else 0)
    assert not admission.holding
    passes = ring.routing._passes
    cycles = ring.compaction.stats.cycles_run
    assert ring.cycle_count() == cycles
    with counting_passes() as calls:
        ring.run(320)
    assert calls == {name: 0 for name in calls}
    assert ring.routing._passes == passes + 320
    assert ring.compaction.stats.cycles_run == cycles + 160
    assert ring.cycle_count() == cycles + 160



def test_a_held_request_keeps_a_ring_without_buses_awake():
    """Raising the limit, as leaving degraded mode does, while the only
    outstanding request backs off releases a held request at the next
    tick, although the ring has no bus and no ready node."""
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, admission_limit=1,
                             retry=RetryPolicy(delay=64.0, jitter=0.0)))
    ring.submit_all([Message(0, 2, 4, data_flits=12),  # busies node 4
                     Message(1, 0, 4, data_flits=2),   # Nacked, backs off
                     Message(2, 0, 5, data_flits=2)])  # deferred
    ring.run(30)
    engine = ring.routing
    assert engine.nacked == 1 and engine.admission.released == 0
    assert not engine.buses and not engine._ready and \
        engine.admission.holding
    engine.admission.limit = 2
    with counting_passes() as calls:
        ring.run(1)
    assert calls["_admit"] == 1
    assert engine.admission.released == 1
    assert engine.records[2].injected_at == ring.sim.now
