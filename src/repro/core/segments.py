"""Physical bus segments and their occupancy grid.

Segment ``(i, l)`` is the lane-``l`` wire bundle from INC ``i``'s output
port ``l`` to INC ``(i+1) % N``'s input port ``l``.  The grid tracks which
virtual bus (by id) occupies each segment; all protocol engines mutate the
grid through this class so occupancy invariants live in one place.

Alongside the occupancy and health rows the grid keeps derived
structures, rebuilt from the rows and never pickled (DESIGN.md §9 P8),
that keep the per-cycle engines off full ``N x k`` scans:

* an **occupied count**, so the utilisation probes and the invariant
  monitor read it in O(1);
* a **faulty index** ``(segment, lane) -> health``, so walking the
  (usually tiny) set of DYING/DEAD segments costs O(faulty), not O(N*k);
* a **dirty-segment set**: every mutation records which segment column
  changed, and the compaction engine drains this set each cycle to limit
  its candidate search to neighbourhoods where something actually moved;
* a **per-column epoch**: a counter every occupancy or health mutation
  of the column bumps, so a reader can tell later whether anything in a
  column it examined has changed (stalled headers park on it).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.derived import DerivedState
from repro.core.status import PortHealth
from repro.errors import CapacityError, ConfigurationError, FaultError


class SegmentGrid(DerivedState):
    """Occupancy of the ``N x k`` segment array.

    The grid is deliberately dumb: it knows ids, not protocol state.  It
    enforces exactly one structural rule — a segment carries at most one
    virtual bus at a time.
    """

    _DERIVED = ("_occupied_count", "_faulty_index", "_faulty_count",
                "_dirty", "epochs")

    def __init__(self, nodes: int, lanes: int) -> None:
        if nodes < 2 or lanes < 1:
            raise ConfigurationError(
                f"grid needs >= 2 nodes and >= 1 lane, got {nodes}x{lanes}"
            )
        self.nodes = nodes
        self.lanes = lanes
        self._occupant: list[list[Optional[int]]] = [
            [None] * lanes for _ in range(nodes)
        ]
        self._health: list[list[PortHealth]] = [
            [PortHealth.OK] * lanes for _ in range(nodes)
        ]
        # Cumulative segment-ticks are integrated externally; the grid
        # keeps simple structural counters only.
        self.total_claims = 0
        self.total_releases = 0
        self.total_faults = 0
        self.total_repairs = 0
        self.rebuild_derived()
        self._dirty.clear()  # a fresh grid starts clean

    def rebuild_derived(self) -> None:
        """Compute the count and index from the rows; every column is
        dirty and every epoch zero (DESIGN.md §9 P8)."""
        self._occupied_count = sum(
            self.lanes - column.count(None) for column in self._occupant)
        self._faulty_index: dict[tuple[int, int], PortHealth] = {
            (segment, lane): health
            for segment, row in enumerate(self._health)
            for lane, health in enumerate(row) if health is not PortHealth.OK
        }
        self._faulty_count = len(self._faulty_index)
        self._dirty: set[int] = set(range(self.nodes))
        # Per-column mutation counters (see the module docstring).
        self.epochs: list[int] = [0] * self.nodes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def occupant(self, segment: int, lane: int) -> Optional[int]:
        """Virtual-bus id occupying ``(segment, lane)``, or ``None``."""
        return self._occupant[segment % self.nodes][lane]

    def is_free(self, segment: int, lane: int) -> bool:
        return self._occupant[segment % self.nodes][lane] is None

    def occupied_segments(self) -> int:
        """Total segments currently claimed (for utilisation probes)."""
        return self._occupied_count

    def utilization(self) -> float:
        """Fraction of all ``N * k`` segments currently in use."""
        return self._occupied_count / (self.nodes * self.lanes)

    def health(self, segment: int, lane: int) -> PortHealth:
        """Health of segment ``(segment, lane)``."""
        return self._health[segment % self.nodes][lane]

    def is_usable(self, segment: int, lane: int) -> bool:
        """True iff the segment is healthy *and* free (claimable now)."""
        segment %= self.nodes
        return (self._health[segment][lane] is PortHealth.OK
                and self._occupant[segment][lane] is None)

    def faulty_segments(self) -> Iterator[tuple[int, int, PortHealth]]:
        """Yield ``(segment, lane, health)`` for every non-OK segment.

        Backed by the faulty index: O(faulty), in ``(segment, lane)``
        ascending order exactly as the historical full scan produced.
        """
        for segment, lane in sorted(self._faulty_index):
            yield segment, lane, self._faulty_index[(segment, lane)]

    def faulty_count(self) -> int:
        """Number of segments currently DYING or DEAD."""
        return self._faulty_count

    def used_lanes(self, segment: int) -> list[int]:
        """Occupied lane indices at one segment column, ascending."""
        column = self._occupant[segment % self.nodes]
        return [lane for lane in range(self.lanes) if column[lane] is not None]

    def column(self, segment: int) -> list[Optional[int]]:
        """A copy of the occupancy column at ``segment`` (lane order)."""
        return list(self._occupant[segment % self.nodes])

    def lane_occupancy(self) -> list[int]:
        """Occupied-segment count per lane (observability scrape).

        Under compaction the profile should skew toward lane 0 — the
        bottom-packing the paper's Figure 5 process works toward.
        """
        counts = [0] * self.lanes
        for column in self._occupant:
            for lane, bus_id in enumerate(column):
                if bus_id is not None:
                    counts[lane] += 1
        return counts

    def iter_occupied(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(segment, lane, bus_id)`` for every occupied segment,
        in ``(segment, lane)`` ascending order.

        A walk over the rows, O(N*k): only cold paths call it (the model
        checker, the monitor's error path and the exhaustive compaction
        reference).
        """
        for segment, column in enumerate(self._occupant):
            for lane, bus_id in enumerate(column):
                if bus_id is not None:
                    yield segment, lane, bus_id

    def state_signature(self) -> tuple:
        """A hashable digest of the complete grid state.

        Covers occupancy, per-segment health, and the structural
        counters.  Two grids with equal signatures are observationally
        identical; the checkpoint tests compare restored rings to their
        originals through this.
        """
        return (
            self.nodes,
            self.lanes,
            tuple(tuple(row) for row in self._occupant),
            tuple(tuple(cell.value for cell in row) for row in self._health),
            self.total_claims,
            self.total_releases,
            self.total_faults,
            self.total_repairs,
        )

    def is_packed(self, segment: int) -> bool:
        """True iff the column's occupied lanes are exactly ``0..m-1``.

        A fully compacted network has every column packed; the packing
        benchmarks (E2) assert this at quiescence.
        """
        column = self._occupant[segment % self.nodes]
        seen_free = False
        for lane in range(self.lanes):
            if column[lane] is None:
                seen_free = True
            elif seen_free:
                return False
        return True

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def claim(self, segment: int, lane: int, bus_id: int) -> None:
        """Assign a free, healthy segment to a virtual bus."""
        segment %= self.nodes
        current = self._occupant[segment][lane]
        if current is not None:
            raise CapacityError(
                f"segment ({segment}, {lane}) already carries bus {current}, "
                f"cannot claim for bus {bus_id}"
            )
        if self._health[segment][lane] is not PortHealth.OK:
            raise FaultError(
                f"segment ({segment}, {lane}) is "
                f"{self._health[segment][lane].value}; bus {bus_id} "
                "cannot claim it"
            )
        self._occupant[segment][lane] = bus_id
        self._occupied_count += 1
        self._dirty.add(segment)
        self.epochs[segment] += 1
        self.total_claims += 1

    def release(self, segment: int, lane: int, bus_id: int) -> None:
        """Free a segment, verifying the releasing bus really held it."""
        segment %= self.nodes
        current = self._occupant[segment][lane]
        if current != bus_id:
            raise CapacityError(
                f"segment ({segment}, {lane}) holds {current!r}, "
                f"bus {bus_id} cannot release it"
            )
        self._occupant[segment][lane] = None
        self._occupied_count -= 1
        self._dirty.add(segment)
        self.epochs[segment] += 1
        self.total_releases += 1

    def move_down(self, segment: int, lane: int, bus_id: int) -> None:
        """Atomically move a bus's segment claim from ``lane`` to ``lane-1``.

        The make-before-break electrical sequence is modelled separately in
        :mod:`repro.core.status`; at the occupancy level the move is atomic.
        """
        if lane < 1:
            raise CapacityError("cannot move below lane 0")
        segment %= self.nodes
        if self._occupant[segment][lane] != bus_id:
            raise CapacityError(
                f"bus {bus_id} does not hold segment ({segment}, {lane})"
            )
        if self._occupant[segment][lane - 1] is not None:
            raise CapacityError(
                f"segment ({segment}, {lane - 1}) is occupied; move blocked"
            )
        if self._health[segment][lane - 1] is not PortHealth.OK:
            raise FaultError(
                f"segment ({segment}, {lane - 1}) is "
                f"{self._health[segment][lane - 1].value}; move blocked"
            )
        self._occupant[segment][lane] = None
        self._occupant[segment][lane - 1] = bus_id
        self._dirty.add(segment)
        self.epochs[segment] += 1

    def move_up(self, segment: int, lane: int, bus_id: int) -> None:
        """Move a bus's claim from ``lane`` to ``lane + 1`` (evacuation only).

        Ordinary compaction is strictly downward; this mirror move exists
        so the fault layer can migrate a bus off a dying segment whose
        downward neighbour is unavailable.  The target must be free and
        healthy.
        """
        if lane + 1 >= self.lanes:
            raise CapacityError(f"cannot move above lane {self.lanes - 1}")
        segment %= self.nodes
        if self._occupant[segment][lane] != bus_id:
            raise CapacityError(
                f"bus {bus_id} does not hold segment ({segment}, {lane})"
            )
        if self._occupant[segment][lane + 1] is not None:
            raise CapacityError(
                f"segment ({segment}, {lane + 1}) is occupied; move blocked"
            )
        if self._health[segment][lane + 1] is not PortHealth.OK:
            raise FaultError(
                f"segment ({segment}, {lane + 1}) is "
                f"{self._health[segment][lane + 1].value}; move blocked"
            )
        self._occupant[segment][lane] = None
        self._occupant[segment][lane + 1] = bus_id
        self._dirty.add(segment)
        self.epochs[segment] += 1

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    def touch(self, segment: int) -> None:
        """Mark a segment column dirty without changing its occupancy.

        Protocol engines call this when a *non-occupancy* state change
        (e.g. a bus phase transition) relaxes a move-legality rule at a
        segment, so incremental compaction re-examines the neighbourhood.
        """
        self._dirty.add(segment % self.nodes)

    def collect_dirty(self) -> set[int]:
        """Drain and return the dirty segment columns.  The set is
        unordered: its one consumer, compaction's hot map, only sets
        bits per column."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def set_health(self, segment: int, lane: int, health: PortHealth) -> None:
        """Transition one segment's health, maintaining fault counters.

        Occupancy is untouched: a DYING segment keeps carrying its current
        bus until evacuation or teardown; callers (the fault manager) are
        responsible for killing the occupant of a DEAD segment.
        """
        segment %= self.nodes
        previous = self._health[segment][lane]
        if previous is health:
            return
        if previous is PortHealth.OK:
            self._faulty_count += 1
            self.total_faults += 1
        elif health is PortHealth.OK:
            self._faulty_count -= 1
            self.total_repairs += 1
        self._health[segment][lane] = health
        if health is PortHealth.OK:
            self._faulty_index.pop((segment, lane), None)
        else:
            self._faulty_index[(segment, lane)] = health
        self._dirty.add(segment)
        self.epochs[segment] += 1
