"""Work gates: waiting costs nothing on the event backend.

A header whose lane pick failed parks on the epochs of its head and
next columns and is not re-evaluated until one of them changes
(DESIGN.md P4).  While it waits it is not even charged its stall tick
per pass: the ticks are settled when it is next evaluated, leaves
EXTENDING or is read, and its header timeout is a deadline (P5).  The
reverse-signal, stream and admission passes visit only the buses and
nodes that can act.

This pins both in machine-independent work on a small overload job (32
nodes, k=4, 0.04 msg/node/tick for 150 ticks, about ten times past
saturation).  The simulated outcome is the one the eager engine
produced: 254,775 stall ticks, drained at tick 27,712, with 14,089 full
header evaluations (calls of ``RoutingEngine._pick_extension_lane``).
Evaluating every stalled header on every tick took 261,874 evaluations;
paying every stall tick on every pass took 254,775 ``_stall`` calls, and
walking every live bus in the signal and stream passes and every node
in admission took 277,784, 277,784 and 535,808 visits.  The counters
below are wrappers kept in this test.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core import RMBConfig, RMBRing
from repro.core.routing import RoutingEngine
from repro.core.virtual_bus import BusPhase
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring


class _VisitedMap(dict):
    """A bus map that counts the entries it hands out when iterated."""

    visits = 0

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()

    def items(self):
        self.visits += len(self)
        return super().items()


class _VisitedSet(set):
    """A node set that counts the members it hands out when iterated."""

    visits = 0

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()


#: Pass name -> (engine attribute it walks, who can act in it).
_PASSES = {
    "_advance_signals": ("_signalling", lambda engine: sum(
        1 for bus in engine.buses.values()
        if bus.phase in (BusPhase.ACK_RETURN, BusPhase.NACK_RETURN,
                         BusPhase.TEARDOWN))),
    "_advance_streams": ("_streaming", lambda engine: sum(
        1 for bus in engine.buses.values()
        if bus.phase in (BusPhase.STREAMING, BusPhase.DRAINING))),
    "_admit": ("_ready", lambda engine: sum(
        1 for node, queue in enumerate(engine._queues)
        if queue and engine._tx_active[node] < engine.config.tx_ports)),
}


@pytest.fixture(scope="module")
def job() -> SimpleNamespace:
    ring = RMBRing(RMBConfig(nodes=32, lanes=4, cycle_period=2.0,
                             check_level="sampled"),
                   seed=7, probe_period=16.0)
    replay_on_ring(ring, bernoulli_schedule(
        32, 150, 0.04, 8, RandomStream(7, name="perf")))
    engine = ring.routing
    engine._signalling = _VisitedMap()
    engine._streaming = _VisitedMap()
    engine._ready = _VisitedSet()
    # The compiled arcs hold the pass maps they move buses between.
    engine._compile_arcs()
    calls = {"_pick_extension_lane": 0, "_stall": 0}
    overshoot = {name: 0 for name in _PASSES}

    def counting(name):
        original = getattr(RoutingEngine, name)

        def counted(engine, *args):
            calls[name] += 1
            return original(engine, *args)
        return counted

    def bounded(name):
        original = getattr(RoutingEngine, name)
        walked, can_act = _PASSES[name]

        def visited(engine):
            acting = can_act(engine)
            before = getattr(engine, walked).visits
            original(engine)
            overshoot[name] += max(
                0, getattr(engine, walked).visits - before - acting)
        return visited

    patches = [mock.patch.object(RoutingEngine, name, counting(name))
               for name in calls]
    patches += [mock.patch.object(RoutingEngine, name, bounded(name))
                for name in _PASSES]
    for patch in patches:
        patch.start()
    try:
        ring.run(150)
        ring.drain()
    finally:
        for patch in patches:
            patch.stop()
    return SimpleNamespace(
        ring=ring,
        stall_ticks=sum(record.head_stall_ticks
                        for record in engine.records.values()),
        evaluations=calls["_pick_extension_lane"],
        stall_calls=calls["_stall"],
        timeouts=engine.timed_out,
        visits={name: getattr(engine, walked).visits
                for name, (walked, _) in _PASSES.items()},
        overshoot=overshoot,
    )


def test_stalled_headers_are_not_re_evaluated_every_tick(job):
    assert job.stall_ticks == 254_775
    assert job.ring.sim.now == 27_712
    assert job.evaluations == 14_089
    assert job.evaluations <= job.stall_ticks // 10


def test_parked_headers_pay_their_stall_ticks_at_a_deadline(job):
    """``_stall`` runs once per failed evaluation and once per header
    timeout, never once per waiting tick."""
    assert job.stall_calls <= job.evaluations + job.timeouts
    assert job.stall_calls == 7_645
    assert job.timeouts == 727


def test_each_pass_visits_only_what_can_act(job):
    """No pass visits more buses or nodes than can act in it.  Visits
    are counted when a pass walks its map, so a bus the Hack reaches
    this tick streams (and is visited) this tick, and a node freed by
    this tick's signals is visited by this tick's admission."""
    assert job.overshoot == {name: 0 for name in _PASSES}
    assert job.visits == {"_advance_signals": 11_197,
                          "_advance_streams": 4_905,
                          "_admit": 100_977}


def test_a_flat_ring_runs_as_many_kernel_events(job):
    """A flat ring's own clock pushes its cycle and flit events where
    the ring itself did (DESIGN.md §9 P9), so the job runs exactly the
    kernel events it ran before; rmbbench pins E28's count likewise."""
    assert job.ring.sim.events_executed == 45_087
