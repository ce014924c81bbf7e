"""Continuously-evaluated soak invariants: catch the lie, keep the run.

The core :class:`~repro.core.invariants.InvariantMonitor` raises on the
first violation — right for tests, wrong for a soak, where the point is
to keep running and report *everything* that went wrong.  The monitors
here therefore record :class:`Violation` entries instead of raising, and
they watch end-to-end properties the structural checks cannot see:

* :class:`ConservationMonitor` — delivery conservation: every message
  ever offered is delivered, abandoned, shed, or still verifiably
  in flight.  ``completed + abandoned + shed + pending == offered``,
  continuously, not just at drain time.
* :class:`StuckBusMonitor` — no live virtual bus may sit in the same
  protocol state without progress beyond :data:`STUCK_WINDOW` ticks (the
  watchdog's progress-signature idea, promoted to a hard invariant).
* :class:`SkewMonitor` — Lemma 1 under faults: neighbouring cycle
  counters differ by at most one, skipping INCs the fault layer has
  parked (their controllers legitimately freeze mid-handshake).

:class:`MonitorSuite` bundles them behind one ``check()`` and rides a
:class:`~repro.sim.kernel.Periodic` during soak runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation

#: Ticks a live bus may show zero progress before the stuck-bus monitor
#: reports it.
STUCK_WINDOW = 800.0

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.cycles import CycleController
    from repro.core.network import RMBRing
    from repro.core.routing import RoutingEngine


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed during a soak."""

    time: float
    monitor: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:>10.1f}] {self.monitor}: {self.detail}"


class ConservationMonitor:
    """Delivery conservation over everything ever submitted.

    Offered counts message records; the terminal buckets come from the
    same records (``finished`` / ``abandoned`` / ``shed``); pending is the
    engine's own census of live work.  Any gap means a message fell out
    of the lifecycle FSM without reaching a terminal state — exactly the
    class of bug a fault/recovery interaction would introduce.
    """

    name = "conservation"

    def __init__(self, routing: "RoutingEngine") -> None:
        self._routing = routing

    def check(self, now: float) -> Optional[Violation]:
        routing = self._routing
        offered = len(routing.records)
        completed = abandoned = shed = 0
        for record in routing.records.values():
            if record.finished:
                completed += 1
            elif record.abandoned:
                abandoned += 1
            elif record.shed:
                shed += 1
        pending = routing.pending()
        if completed + abandoned + shed + pending != offered:
            return Violation(
                time=now, monitor=self.name,
                detail=(f"offered={offered} != completed={completed} "
                        f"+ abandoned={abandoned} + shed={shed} "
                        f"+ pending={pending}"),
            )
        return None


class StuckBusMonitor:
    """No live bus may show zero progress for :data:`STUCK_WINDOW` ticks.

    Progress is a state signature — protocol phase, hops drawn, signal
    position, release watermark — the same notion the watchdog uses for
    its ``stalled_bus`` incidents.  The monitor tolerates buses the
    recovery manager is about to evacuate (that *is* the remedy); a bus
    still frozen past the window is a liveness violation.
    """

    name = "stuck_bus"

    def __init__(self, routing: "RoutingEngine") -> None:
        self._routing = routing
        #: bus_id -> (signature, first seen with that signature)
        self._marks: Dict[int, Tuple[tuple, float]] = {}

    def check(self, now: float) -> Optional[Violation]:
        live = set()
        worst: Optional[Tuple[float, int]] = None
        for bus in self._routing.buses.values():
            live.add(bus.bus_id)
            signature = (bus.phase, len(bus.hops), bus.signal_position,
                         bus.released_from)
            mark = self._marks.get(bus.bus_id)
            if mark is None or mark[0] != signature:
                self._marks[bus.bus_id] = (signature, now)
                continue
            age = now - mark[1]
            if age >= STUCK_WINDOW and \
                    (worst is None or age > worst[0]):
                worst = (age, bus.bus_id)
        for bus_id in list(self._marks):
            if bus_id not in live:
                del self._marks[bus_id]
        if worst is not None:
            age, bus_id = worst
            bus = self._routing.buses[bus_id]
            return Violation(
                time=now, monitor=self.name,
                detail=(f"bus#{bus_id} frozen for {age:g} ticks in phase "
                        f"{bus.phase.value} (hops={len(bus.hops)})"),
            )
        return None


class SkewMonitor:
    """Lemma 1 under faults: neighbour cycle skew <= 1, dropped INCs aside.

    An INC parked by the fault layer stops answering the odd/even
    handshake, so runs *through* it are measured between its live
    neighbours instead — the lemma still binds every pair of INCs that
    are actually exchanging handshakes.
    """

    name = "lemma1_skew"

    def __init__(self, controllers: Sequence["CycleController"],
                 dropped: Optional[set] = None) -> None:
        self._controllers = controllers
        # Shared with the compaction engine when given: membership is
        # read at check time, so drops/restores are picked up live.
        self._dropped = dropped if dropped is not None else set()

    def check(self, now: float) -> Optional[Violation]:
        alive = [controller for controller in self._controllers
                 if controller.index not in self._dropped]
        if len(alive) < 2:
            return None
        for position, left in enumerate(alive):
            right = alive[(position + 1) % len(alive)]
            skew = abs(left.cycle - right.cycle)
            if skew > 1:
                return Violation(
                    time=now, monitor=self.name,
                    detail=(f"INC {left.index} at cycle {left.cycle}, "
                            f"INC {right.index} at cycle {right.cycle} "
                            f"(skew {skew})"),
                )
        return None


class MonitorSuite:
    """All soak monitors behind one periodic ``check()``.

    Violations accumulate in :attr:`violations`; the suite never raises,
    so a soak runs to completion and reports the full damage.  The
    structural invariant checks (grid/bus agreement, no dead occupancy,
    lane monotonicity) stay with the ring's own
    :class:`~repro.core.invariants.InvariantMonitor` — soak runs arm both.
    """

    def __init__(self, ring: "RMBRing") -> None:
        self._ring = ring
        self.monitors: List = [
            ConservationMonitor(ring.routing),
            StuckBusMonitor(ring.routing),
        ]
        if ring.controllers is not None:
            dropped = (ring.compaction.dropped_incs
                       if ring.compaction is not None else None)
            self.monitors.append(SkewMonitor(ring.controllers,
                                             dropped=dropped))
        self.violations: List[Violation] = []
        self.checks_run = 0

    def check(self) -> None:
        now = self._ring.sim.now
        self.checks_run += 1
        for monitor in self.monitors:
            violation = monitor.check(now)
            if violation is not None:
                self.violations.append(violation)

    def check_structural(self) -> None:
        """Run the ring's structural invariants, folding raises into
        violations (drain-time sweep for soak reports)."""
        now = self._ring.sim.now
        try:
            self._ring.check_now()
        except InvariantViolation as exc:
            self.violations.append(
                Violation(time=now, monitor="structural", detail=str(exc)))

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.clean:
            return (f"all invariants held "
                    f"({self.checks_run} sweeps, 0 violations)")
        lines = [f"{len(self.violations)} violation(s) "
                 f"in {self.checks_run} sweeps:"]
        lines.extend(str(violation) for violation in self.violations)
        return "\n".join(lines)
