"""Unit tests for the kernel fast-path machinery: the executed-event
counter, the trusted scheduling lane, and the cheap trace-enabled flag."""

import pickle

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator, every
from repro.sim.trace import TraceRecorder
from repro.errors import SimulationError


# ---------------------------------------------------------------------------
# events_executed
# ---------------------------------------------------------------------------

def test_run_counts_executed_events():
    sim = Simulator()
    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_step_counts_executed_events():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.step()
    assert sim.events_executed == 1


def test_cancelled_events_are_not_counted():
    sim = Simulator()
    keep = sim.schedule(1, lambda: None)
    drop = sim.schedule(2, lambda: None)
    sim.cancel(drop)
    sim.run()
    assert not keep.cancelled
    assert sim.events_executed == 1


def test_counter_accumulates_across_runs():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.run(until=5)
    sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 2


def test_counter_updates_even_when_run_raises():
    sim = Simulator()
    stop = every(sim, 1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=4)
    stop.stop()
    assert sim.events_executed == 4


# ---------------------------------------------------------------------------
# Trusted scheduling lane
# ---------------------------------------------------------------------------

def test_schedule_trusted_matches_schedule_semantics():
    sim = Simulator()
    fired = []
    sim._schedule_trusted(2.0, lambda: fired.append(sim.now), "t")
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0, 2.0]


# ---------------------------------------------------------------------------
# TraceRecorder.enabled
# ---------------------------------------------------------------------------

def test_trace_enabled_flag():
    assert TraceRecorder().enabled
    assert TraceRecorder(kinds={"inject"}).enabled
    assert not TraceRecorder(kinds=set()).enabled


# ---------------------------------------------------------------------------
# Slotted events stay picklable (checkpointing depends on it)
# ---------------------------------------------------------------------------

def test_event_pickle_roundtrip():
    queue = EventQueue()
    event = queue.push(3.0, _noop, "label")
    copy = pickle.loads(pickle.dumps(event))
    assert (copy.time, copy.seq, copy.label) == (3.0, event.seq, "label")
    assert copy.cancelled == event.cancelled
    assert isinstance(copy, Event)


def _noop():
    return None


def test_queue_pickle_preserves_order_and_liveness():
    queue = EventQueue()
    queue.push(2.0, _noop, "b")
    queue.push(1.0, _noop, "a")
    cancelled = queue.push(1.5, _noop, "x")
    cancelled.cancel()
    queue.note_cancelled()
    restored = pickle.loads(pickle.dumps(queue))
    assert len(restored) == 2
    assert [restored.pop().label for _ in range(2)] == ["a", "b"]
