"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live ring.

The :class:`FaultManager` is the only component allowed to change segment
health.  Each *fail* event runs in two stages:

1. at ``event.time`` the targets turn DYING — no new claims are accepted
   (:meth:`SegmentGrid.claim` rejects them) and the compaction engine's
   evacuation pass starts migrating any established occupant off the
   segment make-before-break;
2. ``event.grace`` ticks later the targets turn DEAD — a bus still holding
   the segment loses its carrier and is torn down via
   :meth:`BusManager.fail_bus` (delivered messages complete, undelivered
   ones are Nacked back to the source for retry).

INC failures additionally park the INC's compaction logic
(``dropped_incs``): its output column can no longer switch lanes, but its
cycle controller keeps running so the odd/even handshake — and with it
Lemma 1 — survives the dropout (fault model F5).

Repair events return targets to OK, un-park dropped INCs, and reset the
lane-monotonicity tracker (an earlier evacuation may have legally moved
hops *up*; after repair the downward-only rule re-arms from the current
placement).

A per-segment epoch counter guards the delayed kill: if a segment is
repaired (or re-failed) between DYING and its scheduled DEAD transition,
the stale kill is a no-op.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.wiring import Observability

from repro.core.segments import SegmentGrid
from repro.errors import FaultError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.transitions import fail_target, kill_target, repair_target
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class FaultStats:
    """Counters describing what the fault layer actually did."""

    segments_failed: int = 0        # OK -> DYING transitions applied
    segments_killed: int = 0        # DYING -> DEAD transitions applied
    segments_repaired: int = 0      # -> OK transitions applied
    buses_killed: int = 0           # occupants torn down at DEAD time
    incs_dropped: int = 0
    incs_restored: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "segments_failed": self.segments_failed,
            "segments_killed": self.segments_killed,
            "segments_repaired": self.segments_repaired,
            "buses_killed": self.buses_killed,
            "incs_dropped": self.incs_dropped,
            "incs_restored": self.incs_restored,
        }


class FaultManager:
    """Arms a fault plan against one ring's simulator and engines.

    Args:
        plan: the validated schedule to apply.
        sim: the ring's simulator (events are scheduled on it).
        grid: the segment grid whose health states are driven.
        routing: the ring's :class:`~repro.core.routing.BusManager`
            (used to tear down occupants of newly dead segments).
        compaction: the ring's compaction engine (INC dropouts are
            registered in its ``dropped_incs`` set).
        monitor: optional :class:`~repro.core.invariants.InvariantMonitor`;
            its monotonicity tracker is reset on repairs.
        trace: optional recorder; emits ``fault_dying`` / ``fault_dead`` /
            ``fault_repair`` / ``inc_drop`` / ``inc_restore`` entries.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        grid: SegmentGrid,
        routing,
        compaction=None,
        monitor=None,
        trace: Optional[TraceRecorder] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        plan.validate(grid.nodes, grid.lanes)
        self.plan = plan
        self.sim = sim
        self.grid = grid
        self.routing = routing
        self.compaction = compaction
        self.monitor = monitor
        self.trace = trace
        # Health transitions as first-class metrics: one kind-labelled
        # counter per applied transition when observability is armed.
        self.obs = obs
        self._obs_on = obs is not None
        self.stats = FaultStats()
        self._epoch: dict[tuple[int, int], int] = {}
        self._armed = False
        # Transition listeners (e.g. the recovery manager's breakers):
        # plain objects with on_fault_transition(kind, segment, lane),
        # notified after each applied health arc.  Plain instances only —
        # the list rides checkpoint pickles with the rest of the manager.
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """Register ``listener.on_fault_transition(kind, segment, lane)``.

        ``kind`` is ``"dying"``, ``"dead"`` or ``"repair"`` — fired once
        per *applied* transition (announcements that lose to first-wins
        or stale epoch rules are not reported).
        """
        self._listeners.append(listener)

    def _notify(self, kind: str, segment: int, lane: int) -> None:
        for listener in self._listeners:
            listener.on_fault_transition(kind, segment, lane)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every plan event on the simulator (idempotent)."""
        if self._armed:
            raise FaultError("fault plan already armed")
        self._armed = True
        for event in self.plan.sorted_events():
            fire_at = max(event.time, self.sim.now)
            # functools.partial over a bound method (not a lambda): armed
            # fault events live in the kernel queue and must survive a
            # checkpoint pickle.
            self.sim.schedule_at(
                fire_at,
                functools.partial(self._apply, event),
                label=f"fault.{event.action}",
            )

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        if event.action == "fail":
            self._fail(event)
        else:
            self._repair(event)

    def _fail(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.INC and self.compaction is not None:
            inc = event.segment % self.grid.nodes
            if inc not in self.compaction.dropped_incs:
                self.compaction.dropped_incs.add(inc)
                self.grid.touch(inc)
                self.stats.incs_dropped += 1
                self._record("inc_drop", f"inc={inc}")
        for segment, lane in event.targets(self.grid.nodes, self.grid.lanes):
            if not fail_target(self.grid, segment, lane):
                continue  # already failing or dead; first announcement wins
            self.stats.segments_failed += 1
            epoch = self._bump_epoch(segment, lane)
            self._record("fault_dying", f"segment=({segment}, {lane})",
                         grace=event.grace)
            self._notify("dying", segment, lane)
            if event.grace <= 0:
                self._kill(segment, lane, epoch)
            else:
                self.sim.schedule(
                    event.grace,
                    functools.partial(self._kill, segment, lane, epoch),
                    label="fault.kill",
                )

    def _kill(self, segment: int, lane: int, epoch: int) -> None:
        if self._epoch.get((segment, lane)) != epoch:
            return  # repaired or re-failed since the DYING announcement

        def note_dead(occupant: Optional[int]) -> None:
            self.stats.segments_killed += 1
            self._record("fault_dead", f"segment=({segment}, {lane})",
                         occupant=occupant)

        applied, occupant = kill_target(self.grid, self.routing, segment,
                                        lane, on_dead=note_dead)
        if applied:
            if occupant is not None:
                self.stats.buses_killed += 1
            self._notify("dead", segment, lane)

    def _repair(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.INC and self.compaction is not None:
            inc = event.segment % self.grid.nodes
            if inc in self.compaction.dropped_incs:
                self.compaction.dropped_incs.discard(inc)
                # A restored INC may immediately have legal moves again;
                # mark its column so the incremental candidate search
                # re-examines the neighbourhood.
                self.grid.touch(inc)
                self.stats.incs_restored += 1
                self._record("inc_restore", f"inc={inc}")
        for segment, lane in event.targets(self.grid.nodes, self.grid.lanes):
            if not repair_target(self.grid, segment, lane):
                continue  # already healthy
            self.stats.segments_repaired += 1
            self._bump_epoch(segment, lane)
            self._record("fault_repair", f"segment=({segment}, {lane})")
            # Notified after the epoch bump: a listener that re-fails the
            # target (quarantine hold) cannot be preempted by a stale
            # scheduled kill, and its DYING mark has no kill of its own.
            self._notify("repair", segment, lane)
        if self.monitor is not None:
            # Evacuations may have moved hops upward while the fault stood;
            # re-arm the downward-only tracker from the current placement.
            self.monitor.monotonicity.reset()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bump_epoch(self, segment: int, lane: int) -> int:
        key = (segment, lane)
        self._epoch[key] = self._epoch.get(key, 0) + 1
        return self._epoch[key]

    def _record(self, kind: str, subject: str, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, kind, subject, **detail)
        if self._obs_on:
            self.obs.registry.counter(
                "rmb_fault_events_total",
                help="Fault-layer transitions applied, by kind",
                kind=kind,
            ).inc()
