"""Work gates: the event ring resolves its protocol once, not per step.

The lifecycle enums hash by identity in C, a virtual bus binds its
endpoints and span when it is built, and ``RoutingEngine._fire`` runs
arcs compiled from ``LIFECYCLE`` when the engine rebuilds its derived
state (DESIGN.md §9 P10).  This pins that in machine-independent work
on the 32-node overload job of ``test_header_parking.py``: the engine
that re-derived each lookup on every transition made 53,799
Python-level ``Enum.__hash__`` calls and 34,512 ``Message.span`` calls
there.  Now no lifecycle lookup runs a Python hash, and a message's
span is computed once when it is submitted and once per bus opened for
it.  The counters below are wrappers kept in this test.  The compiled
arcs are checked against the table itself.
"""

from __future__ import annotations

import enum
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.routing import PHASE_OF_STATE, RoutingEngine
from repro.errors import ProtocolError
from repro.protocol.lifecycle import LIFECYCLE, LifecycleEvent, LifecycleState
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring


@pytest.fixture(scope="module")
def job() -> SimpleNamespace:
    calls = {"Enum.__hash__": 0, "Message.span": 0}
    enum_hash = enum.Enum.__hash__
    span = Message.span

    def hashing(member):
        calls["Enum.__hash__"] += 1
        return enum_hash(member)

    def spanning(message, ring_size):
        calls["Message.span"] += 1
        return span(message, ring_size)

    # Built inside the patches, so every lookup of the job is counted.
    with mock.patch.object(enum.Enum, "__hash__", hashing), \
            mock.patch.object(Message, "span", spanning):
        ring = RMBRing(RMBConfig(nodes=32, lanes=4, cycle_period=2.0,
                                 check_level="sampled"),
                       seed=7, probe_period=16.0)
        replay_on_ring(ring, bernoulli_schedule(
            32, 150, 0.04, 8, RandomStream(7, name="perf")))
        ring.run(150)
        ring.drain()
    return SimpleNamespace(ring=ring, calls=calls)


def test_the_simulation_is_unchanged(job):
    """The job ends where test_header_parking.py pins it."""
    assert job.ring.sim.now == 27_712
    assert job.ring.sim.events_executed == 45_087
    assert len(job.ring.routing.records) == 192
    assert job.ring.routing.injected == 921


def test_no_lifecycle_lookup_runs_a_python_hash(job):
    assert job.calls["Enum.__hash__"] == 0


def test_a_span_is_computed_once_per_submission_and_per_bus(job):
    engine = job.ring.routing
    assert job.calls["Message.span"] == \
        len(engine.records) + engine.injected == 1_113


def _engine() -> RoutingEngine:
    return RMBRing(RMBConfig(nodes=8, lanes=3), seed=1).routing


def test_every_arc_compiles_to_its_declared_transition():
    engine = _engine()
    assert engine._arcs.keys() == LIFECYCLE.keys()
    for (state, event), arc in LIFECYCLE.items():
        target, phase, left, entered, effects = engine._arcs[(state, event)]
        assert target is arc.target
        assert phase is PHASE_OF_STATE.get(arc.target)
        if arc.target is state:
            assert left is None and entered is None
        else:
            assert left is engine._pass_of(state)
            assert entered is engine._pass_of(arc.target)
        assert [effect for _, effect in effects] == list(arc.effects)
        for handler, effect in effects:
            assert handler.__self__ is engine
            assert handler.__func__ is getattr(RoutingEngine, effect.handler)


def test_an_undeclared_transition_still_raises_naming_it():
    engine = _engine()
    message = Message(0, 1, 4, data_flits=2)
    engine.submit(message)
    assert engine._lifecycle[0] is LifecycleState.QUEUED
    assert (LifecycleState.QUEUED, LifecycleEvent.DELIVER) not in LIFECYCLE
    with pytest.raises(ProtocolError,
                       match=r"msg0: undeclared lifecycle transition "
                             r"\(queued, deliver\)"):
        engine._fire(message, LifecycleEvent.DELIVER)
