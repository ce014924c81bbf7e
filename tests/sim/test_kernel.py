"""Unit tests for the simulation kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import every


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run(sim):
    fired = []
    sim.schedule(5, lambda: fired.append(sim.now))
    sim.schedule(2, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0, 5.0]
    assert sim.now == 5.0


def test_negative_delay_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(3, lambda: None)


def test_run_until_advances_clock_without_events(sim):
    sim.run(until=100)
    assert sim.now == 100.0


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(10, lambda: fired.append("late"))
    sim.run(until=5)
    assert fired == []
    assert sim.now == 5.0
    sim.run(until=15)
    assert fired == ["late"]


def test_run_ticks_is_relative(sim):
    sim.run_ticks(10)
    sim.run_ticks(10)
    assert sim.now == 20.0


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3:
            sim.schedule(1, chain)

    sim.schedule(1, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_cancel_prevents_firing(sim):
    fired = []
    event = sim.schedule(1, lambda: fired.append("no"))
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_max_events_guard(sim):
    def forever():
        sim.schedule(0, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_every_fires_periodically(sim):
    times = []
    every(sim, 5, lambda: times.append(sim.now))
    sim.run(until=22)
    assert times == [5.0, 10.0, 15.0, 20.0]


def test_every_stop_function(sim):
    times = []
    stop = every(sim, 5, lambda: times.append(sim.now))
    sim.run(until=12)
    stop.stop()
    sim.run(until=50)
    assert times == [5.0, 10.0]


def test_every_rejects_nonpositive_period(sim):
    with pytest.raises(SchedulingError):
        every(sim, 0, lambda: None)


def test_step_executes_single_event(sim):
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    sim.schedule(2, lambda: fired.append(2))
    sim.step()
    assert fired == [1]
    assert sim.now == 1.0


def test_pending_events_counter(sim):
    assert sim.pending_events == 0
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


# ---------------------------------------------------------------------------
# max_events semantics and livelock diagnostics (supervision PR)
# ---------------------------------------------------------------------------

def test_max_events_allows_exactly_that_many(sim):
    """A queue that drains at the cap is success, not a livelock."""
    fired = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_executes_no_extra_event(sim):
    fired = []
    for i in range(6):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4], \
        "the cap must stop execution before the excess event runs"


def test_livelock_diagnostics_carry_time_and_labels(sim):
    def forever():
        sim.schedule(1, forever, label="spinner")

    sim.schedule(1, forever, label="spinner")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(max_events=10)
    message = str(excinfo.value)
    assert "max_events=10" in message
    assert "t=10" in message
    assert "spinner" in message


def test_livelock_diagnostics_list_upcoming_events(sim):
    for i in range(8):
        sim.schedule(i + 1, lambda: None, label=f"ev{i}")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(max_events=2)
    message = str(excinfo.value)
    # The five soonest queued events, in order, after two executed.
    assert "ev2@3" in message and "ev6@7" in message
    assert "ev7" not in message


# ---------------------------------------------------------------------------
# Checkpoint support: pickling the kernel and its helpers
# ---------------------------------------------------------------------------

class _Recorder:
    """Module-level so the pickle round-trip below can serialise it."""

    def __init__(self, clock):
        self.clock = clock
        self.fired = []

    def tick(self):
        self.fired.append(self.clock())


def test_simulator_pickles_with_pending_events(sim):
    import pickle

    from repro.sim.kernel import SimClock, SimScheduler, every as make_every

    recorder = _Recorder(SimClock(sim))
    make_every(sim, 5, recorder.tick)
    SimScheduler(sim, label="probe")(3, recorder.tick)
    sim.run(until=7)
    clone = pickle.loads(pickle.dumps(sim))
    clone.run(until=22)
    sim.run(until=22)
    assert sim.now == clone.now == 22.0
    assert sim.pending_events == clone.pending_events


def test_periodic_reschedule_first_keeps_next_occurrence_queued(sim):
    from repro.sim.kernel import Periodic

    seen = []

    def probe():
        # With reschedule_first, the *next* occurrence is already in the
        # queue while the callback runs.
        seen.append(sim.pending_events)

    Periodic(sim, 5, probe, reschedule_first=True)
    sim.run(until=12)
    assert seen == [1, 1]


def test_periodic_stop_method_and_call_are_equivalent(sim):
    from repro.sim.kernel import Periodic

    times = []
    periodic = Periodic(sim, 5, lambda: times.append(sim.now))
    sim.run(until=12)
    periodic.stop()
    sim.run(until=40)
    assert times == [5.0, 10.0]
