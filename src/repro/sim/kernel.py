"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue.  Components
schedule plain callbacks with :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at`, and periodic machinery (the RMB tick
engines, probes, watchdog sweeps) goes through :func:`every`.  The RMB
protocol is synchronous and tick-driven, so callbacks are the only style
the kernel offers.

Time is a float but every built-in component uses integral ticks; the
kernel itself is unit-agnostic.

The hot path is :meth:`Simulator.run`: it pops heap entries directly
instead of calling :meth:`Simulator.step` per event, so dispatching one
event costs a heap pop and the callback itself.  Built-in periodic
machinery reschedules through the trusted
:meth:`Simulator._schedule_trusted` lane, which skips argument
re-validation (the arguments were validated when the component was
built and cannot go stale).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, EventQueue


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.events_executed = 0
        # Model-level diagnostics providers (picklable callables returning
        # a one-line description) appended to livelock error messages so
        # the report names protocol states, not just event labels.
        self._diagnostics: list[Callable[[], str]] = []

    def __getstate__(self) -> dict:
        """Pickle support for checkpointing.

        A snapshot is taken from *inside* a running event (the checkpoint
        callback), so ``_running`` is True at dump time; the restored
        simulator must accept a fresh :meth:`run` call.
        """
        state = dict(self.__dict__)
        state["_running"] = False
        return state

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def metrics_snapshot(self) -> dict[str, float]:
        """Kernel state for observability scrapes (read-only)."""
        return {
            "events_executed": float(self.events_executed),
            "pending_events": float(self.pending_events),
            "now": self._now,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time!r}, current time is {self._now!r}"
            )
        return self._queue.push(time, callback, label)

    def _schedule_trusted(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str,
    ) -> Event:
        """Fast lane for built-in periodic machinery.

        Identical semantics to :meth:`schedule` for non-negative delays,
        minus the re-validation: callers on this path are kernel-owned
        machinery whose delays were validated at construction time.
        """
        return self._queue.push(self._now + delay, callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> float:
        """Execute exactly one event and return the new simulation time.

        Raises:
            SchedulingError: if no events remain.
        """
        event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue returned an event in the past")
        self._now = event.time
        event.callback()
        self.events_executed += 1
        return self._now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the event cap.

        Args:
            until: stop once the next event lies strictly beyond this time;
                the clock is advanced to ``until``.
            max_events: safety valve for tests; raise once this many events
                have executed and more remain.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        executed = 0
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(self._livelock_diagnostics(max_events))
                heappop(heap)
                queue._live -= 1
                self._now = time
                event.callback()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self.events_executed += executed

    def add_diagnostic(self, provider: Callable[[], str]) -> None:
        """Register a model-state describer for livelock error messages.

        Providers must be picklable (bound methods of checkpointable
        objects or callable classes, not closures) so a restored
        simulator keeps its diagnostics.
        """
        self._diagnostics.append(provider)

    def _livelock_diagnostics(self, max_events: int) -> str:
        """Describe the stuck state: clock and the imminent event labels."""
        upcoming = ", ".join(
            f"{event.label or '<unlabelled>'}@{event.time:g}"
            for event in self._queue.peek_events(5)
        )
        message = (
            f"exceeded max_events={max_events} at t={self._now:g}; "
            f"possible livelock in the model (next events: {upcoming})"
        )
        for provider in self._diagnostics:
            try:
                message += f"; {provider()}"
            except Exception:  # pragma: no cover - diagnostics never mask
                continue
        return message

    def run_ticks(self, ticks: float) -> None:
        """Convenience: advance the clock by ``ticks`` from the current time."""
        self.run(until=self._now + ticks)


class SimClock:
    """A picklable callable returning its simulator's current time.

    Engines that only need ``now()`` take this instead of a bound lambda,
    so the whole object graph of a ring remains serialisable for
    checkpoint/restore (closures defeat pickle; instances do not).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def __call__(self) -> float:
        return self._sim.now


class SimScheduler:
    """A picklable callable scheduling relative-delay events.

    The routing engine's retry timers go through this instead of a lambda
    over :meth:`Simulator.schedule`, for the same checkpointing reason as
    :class:`SimClock`.
    """

    def __init__(self, sim: Simulator, label: str = "") -> None:
        self._sim = sim
        self._label = label

    def __call__(self, delay: float, callback: Callable[[], Any]) -> Event:
        return self._sim.schedule(delay, callback, label=self._label)


class Periodic:
    """A self-rescheduling periodic callback (the engine behind ``every``).

    Instances are plain picklable objects — their pending event holds a
    bound method, not a closure — so periodic machinery (flit ticks,
    probes, watchdog sweeps) survives checkpoint/restore intact.

    ``reschedule_first=False`` (the default) runs the callback before
    pushing the next occurrence, preserving the historical event ordering
    of the closure-based ``every``.  The checkpoint writer sets it True so
    that the *next* periodic occurrence is already queued when the
    snapshot is taken mid-callback; otherwise a restored run would never
    see the periodic fire again.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        label: str = "",
        reschedule_first: bool = False,
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._label = label
        self._reschedule_first = reschedule_first
        self._stopped = False
        self._event: Optional[Event] = sim._schedule_trusted(
            period, self._fire, label
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        if self._reschedule_first:
            self._event = self._sim._schedule_trusted(
                self._period, self._fire, self._label
            )
            self._callback()
            return
        self._callback()
        if not self._stopped:
            self._event = self._sim._schedule_trusted(
                self._period, self._fire, self._label
            )

    def stop(self) -> None:
        """Cancel the pending occurrence and stop rescheduling."""
        self._stopped = True
        if self._event is not None and not self._event.cancelled:
            self._sim.cancel(self._event)


def every(
    sim: Simulator,
    period: float,
    callback: Callable[[], Any],
    label: str = "",
) -> Periodic:
    """Schedule ``callback`` periodically; return its :class:`Periodic`.

    Used by the RMB tick engines and by monitors.  The callback runs first
    one period from now and then every ``period`` units until
    :meth:`Periodic.stop` is called.
    """
    return Periodic(sim, period, callback, label)
