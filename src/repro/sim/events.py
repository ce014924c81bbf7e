"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback bound to a simulation time.  Events are
totally ordered by ``(time, sequence)`` so that simultaneous events
execute in insertion order.  Determinism matters for reproducibility of
every experiment in this repository — two runs with the same seed must
produce identical traces.

The queue stores ``(time, seq, event)`` tuples rather than the events
themselves: tuple comparison runs entirely in C, so heap sifts
never re-enter the interpreter.  With millions of events per run the
ordering comparisons are the dominant heap cost, and the tuple layout
cuts them to near the floor of what ``heapq`` can do.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from repro.errors import SchedulingError


class Event:
    """A scheduled callback.

    Instances are created through :meth:`repro.sim.kernel.Simulator.schedule`
    rather than directly.  Ordering lives in the queue's heap entries, not
    here; events themselves compare by identity.  ``__slots__`` keeps the
    per-event footprint to the five fields — no ``__dict__`` allocation.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __getstate__(self) -> tuple:
        return (self.time, self.seq, self.callback, self.label,
                self.cancelled)

    def __setstate__(self, state: tuple) -> None:
        (self.time, self.seq, self.callback, self.label,
         self.cancelled) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, seq={self.seq}, "
                f"label={self.label!r}{flag})")


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The queue lazily discards cancelled events on pop, which keeps
    cancellation O(1) at the cost of a small amount of retained memory; the
    simulations in this library cancel rarely (retry timers mostly), so the
    trade-off favours cancellation speed.
    """

    def __init__(self) -> None:
        # Heap entries are (time, seq, event): seq is unique, so
        # comparisons never reach the event and stay in C.
        self._heap: list[tuple[float, int, Event]] = []
        # A plain integer sequence rather than itertools.count: the queue
        # is part of a run's checkpointable state, and the counter must
        # survive pickling with its exact value so post-restore pushes get
        # the same sequence numbers an uninterrupted run would assign.
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> Event:
        """Insert a callback at ``time`` and return its :class:`Event`."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SchedulingError: if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise SchedulingError("pop from an empty event queue")

    def note_cancelled(self) -> None:
        """Inform the queue that one previously pushed event was cancelled.

        :meth:`Event.cancel` does not know its queue; the kernel calls this
        to keep the live count accurate.
        """
        self._live -= 1

    def peek_events(self, count: int) -> list[Event]:
        """The next ``count`` live events in firing order, without popping.

        Used by the kernel's livelock diagnostics: when ``max_events``
        trips, the labels of the imminent events usually identify the
        component that is rescheduling itself forever.
        """
        live = [entry for entry in self._heap if not entry[2].cancelled]
        return [entry[2] for entry in heapq.nsmallest(count, live)]

    def drain(self) -> Iterator[Event]:
        """Yield and remove all live events in order (for shutdown/tests)."""
        while self:
            yield self.pop()
