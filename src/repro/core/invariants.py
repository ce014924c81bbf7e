"""Runtime invariant monitors for the RMB simulator.

Each check is a pure function over current simulator state that raises
:class:`~repro.errors.InvariantViolation` with a precise description on
failure.  :class:`InvariantMonitor` runs them periodically during long
runs, in one walk over the buses — every experiment in ``benchmarks/``
runs with the monitor armed, so reported numbers come from runs whose
protocol state was continuously validated.

The checks encode the paper's correctness claims:

* structural — grid/bus agreement, lane bounds, ±1 hop adjacency
  (the "virtual bus is never disconnected" property behind Figure 4);
* monotonicity — a placed hop only ever moves downward;
* Table 1 — all port registers hold legal codes, which follows from
  agreement plus ±1 adjacency (DESIGN.md §9 P7; the model checker still
  calls :func:`~repro.core.ports.validate_ports` directly);
* Lemma 1 — neighbouring INCs' cycle counts differ by at most one;
* Theorem 1 (safety half) — distinct virtual buses never share a segment,
  so every transaction is maintained unchanged; the liveness half (all
  requests complete) is asserted by :meth:`repro.core.network.RMBRing.drain`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cycles import CycleController
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.core.virtual_bus import VirtualBus
from repro.errors import InvariantViolation, ProtocolError


def check_grid_bus_agreement(
    grid: SegmentGrid, buses: dict[int, VirtualBus]
) -> None:
    """Grid occupancy and bus hop lists must describe the same state."""
    seen: dict[tuple[int, int], int] = {}
    for segment, lane, bus_id in grid.iter_occupied():
        if bus_id not in buses:
            raise InvariantViolation(
                f"segment ({segment}, {lane}) held by unknown bus {bus_id}"
            )
        seen[(segment, lane)] = bus_id
    for bus in buses.values():
        for hop in bus.held_hops():
            key = (bus.segment_index(hop), bus.hops[hop])
            if seen.get(key) != bus.bus_id:
                raise InvariantViolation(
                    f"{bus.describe()}: hop {hop} claims segment {key} but "
                    f"the grid records {seen.get(key)!r}"
                )
            del seen[key]
    if seen:
        raise InvariantViolation(
            f"grid holds segments owned by no live hop: {sorted(seen)}"
        )


def check_bus_shapes(buses: dict[int, VirtualBus], lanes: int) -> None:
    """Every bus is a connected ±1 lane path within bounds."""
    for bus in buses.values():
        try:
            bus.validate_shape(lanes)
        except ProtocolError as exc:
            raise InvariantViolation(str(exc)) from exc


class LaneMonotonicity:
    """Tracks that each hop's lane never increases after placement.

    Compaction moves only downward (the paper: "the motion of virtual
    buses for the purpose of compaction is only downwards"), and header
    extension appends fresh hops; so per-hop lanes must be non-increasing
    over time.  The state is one list per bus: the lanes of its held hops
    at the last observation, keyed by bus id.
    """

    def __init__(self) -> None:
        self._last: dict[int, list[int]] = {}   # bus id -> held-hop lanes

    def reset(self) -> None:
        """Forget all placements (called when a fault repair lands, since
        an evacuation off the repaired segment may have moved hops up)."""
        self._last.clear()

    def observe(self, buses: dict[int, VirtualBus],
                grid: Optional[SegmentGrid] = None) -> None:
        """Compare every bus's held hops with the last observation, then
        remember them.  A bus holding no hop is forgotten, so bus ids can
        be reused safely."""
        current: dict[int, list[int]] = {}
        for bus in buses.values():
            lanes = bus.hops[:len(bus.held_hops())]
            if lanes:
                self.compare(bus, lanes, grid)
                current[bus.bus_id] = lanes
        self._last = current

    def compare(self, bus: VirtualBus, lanes: list[int],
                grid: Optional[SegmentGrid] = None) -> None:
        """Raise if a held hop of ``bus`` (``lanes``, source side first)
        rose since the last observation.  An unchanged bus costs one list
        comparison."""
        previous = self._last.get(bus.bus_id)
        if previous is None or previous == lanes:
            return
        for hop, (before, lane) in enumerate(zip(previous, lanes)):
            if lane > before:
                # An upward move is legal only as a fault evacuation:
                # the lane the hop left must be DYING or DEAD.
                segment = bus.segment_index(hop)
                if (grid is None
                        or grid.health(segment, before) is PortHealth.OK):
                    raise InvariantViolation(
                        f"{bus.describe()}: hop {hop} at segment {segment} "
                        f"rose from lane {before} to {lane}; compaction "
                        "must be downward except when evacuating a faulty "
                        "segment"
                    )


def check_no_dead_occupancy(grid: SegmentGrid) -> None:
    """No virtual bus may keep holding a DEAD segment.

    The fault manager kills the occupant the instant a segment dies, so
    any occupied DEAD segment signals a bug in the teardown path.  (DYING
    segments may legitimately stay occupied through the make-before-break
    evacuation window.)
    """
    for segment, lane, health in grid.faulty_segments():
        if health is PortHealth.DEAD and grid.occupant(segment, lane) is not None:
            raise InvariantViolation(
                f"dead segment ({segment}, {lane}) still carries bus "
                f"{grid.occupant(segment, lane)}"
            )


def check_lemma1(controllers: Sequence[CycleController]) -> None:
    """Lemma 1: neighbouring cycle counts differ by at most one."""
    count = len(controllers)
    for index in range(count):
        left = controllers[index]
        right = controllers[(index + 1) % count]
        skew = abs(left.cycle - right.cycle)
        if skew > 1:
            raise InvariantViolation(
                f"Lemma 1 violated: INC {left.index} at cycle {left.cycle}, "
                f"INC {right.index} at cycle {right.cycle} (skew {skew})"
            )


class InvariantMonitor:
    """Runs every check against a ring's live state in one walk."""

    def __init__(
        self,
        grid: SegmentGrid,
        buses: dict[int, VirtualBus],
        controllers: Optional[Sequence[CycleController]] = None,
    ) -> None:
        self.grid = grid
        self.buses = buses
        self.controllers = controllers
        self.monotonicity = LaneMonotonicity()
        self.checks_run = 0

    def check(self) -> None:
        """Run every check once; raises on the first violation.

        One walk over ``buses`` visits each hop once (DESIGN.md §9 P7).
        Per bus: it is filed under its own id; it has at most ``span``
        hops, every lane in ``[0, k)`` and adjacent lanes at most one
        apart; each held hop's cell holds the bus in the grid's
        occupancy rows; and no held hop rose since the last check.  The
        held cells are then distinct, so a held-hop total equal to the
        occupied-cell count makes them a bijection: no orphan cell and no
        unknown bus.  With ±1 adjacency that is everything Table 1
        legality (:func:`~repro.core.ports.validate_ports`) tests.
        """
        grid = self.grid
        nodes = grid.nodes
        lanes = grid.lanes
        occupant = grid._occupant
        monotonicity = self.monotonicity
        remembered: dict[int, list[int]] = {}
        held_total = 0
        for bus_id, bus in self.buses.items():
            if bus.bus_id != bus_id:
                raise InvariantViolation(
                    f"{bus.describe()} is filed under bus id {bus_id}"
                )
            hops = bus.hops
            if len(hops) > bus.span:
                raise InvariantViolation(
                    f"{bus.describe()} overshoots its destination: "
                    f"{len(hops)} hops for a span of {bus.span}"
                )
            released = bus.released_from
            held = len(hops) if released is None else released
            segment = bus.message.source
            before = hops[0] if hops else 0   # hop 0 has no upstream lane
            for hop, lane in enumerate(hops):
                if lane < 0 or lane >= lanes:
                    raise _hop_violation(
                        bus, hop, segment, lane,
                        f"is outside lanes 0..{lanes - 1}")
                step = lane - before
                if step > 1 or step < -1:
                    raise _hop_violation(
                        bus, hop, segment, lane,
                        f"is disconnected from hop {hop - 1} (lane "
                        f"{before}): INC ports connect only within +/-1")
                if hop < held and occupant[segment][lane] != bus_id:
                    raise _hop_violation(
                        bus, hop, segment, lane,
                        f"is held, but the grid records "
                        f"{occupant[segment][lane]!r} there")
                before = lane
                segment += 1
                if segment == nodes:
                    segment = 0
            if held > 0:
                held_lanes = hops[:held]
                monotonicity.compare(bus, held_lanes, grid)
                remembered[bus_id] = held_lanes
                held_total += held
        monotonicity._last = remembered
        occupied = grid.occupied_segments()
        if held_total != occupied:
            # Some occupied cell is no held hop's: only this error path
            # pays the row scan that names it.
            check_grid_bus_agreement(grid, self.buses)
            raise InvariantViolation(
                f"the grid holds {occupied} segments but the buses hold "
                f"{held_total} hops"
            )
        if grid.faulty_count():
            check_no_dead_occupancy(grid)
        if self.controllers is not None:
            check_lemma1(self.controllers)
        self.checks_run += 1


def _hop_violation(bus: VirtualBus, hop: int, segment: int, lane: int,
                   problem: str) -> InvariantViolation:
    return InvariantViolation(
        f"{bus.describe()}: hop {hop} (segment {segment}, lane {lane}) "
        f"{problem}"
    )
