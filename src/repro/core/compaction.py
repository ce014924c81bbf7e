"""The bus-compaction engine — paper Sections 2.3/2.4, Figures 5/7/8.

Compaction continuously migrates virtual buses *downward* onto the lowest
free lanes so the top lane stays available for new header flits.  A single
local move shifts one bus's claim on segment ``(i, l)`` to ``(i, l-1)``.

Legality of a move (design decision D1, equal to Figure 7's four
conditions):

* target lane ``(i, l-1)`` is free;
* the bus enters the upstream INC at lane ``l-1`` or ``l`` (or starts there);
* the bus leaves the downstream INC at lane ``l-1`` or ``l`` (or ends there).

Scheduling of moves (D2): segment ``(i, l)`` is *considered* in cycle ``c``
iff ``(i + l + c)`` is even — the paper's rule that even INCs consider even
lanes in even cycles and so on.  Two engines are provided:

* :meth:`CompactionEngine.global_pass` — synchronous mode: all INCs share a
  cycle counter; decisions use a start-of-cycle snapshot and conflicts
  between adjacent hops of one bus are resolved *higher-lane-first* (D3),
  which reproduces Figure 5's "whole bus drops one lane in two cycles".
  A candidate that survives D3 is committed without a second D1 check:
  no earlier commit of the pass can change what its D1 test read
  (DESIGN.md §9 P6).
* :meth:`CompactionEngine.inc_pass` — asynchronous mode: each INC moves its
  own output segments when its cycle controller reaches the WORK phase;
  moves commit atomically in event order, so legality is always evaluated
  against current state.

**Incremental candidate search.**  The legality of a move at segment
``(i, l)`` depends only on state at columns ``i-1``, ``i`` and ``i+1``
(the occupancy/health of ``i``, and the adjacent hops' lanes, which live
one column to either side) plus the occupying bus's phase.  The grid
records every column whose state changed as a dirty bit, and the one
phase transition that relaxes legality without touching the grid (a bus
leaving EXTENDING via a Nack) marks the head column dirty explicitly
(:meth:`SegmentGrid.touch`).  ``global_pass`` therefore keeps the *hot
columns*, one ring-wide ``int`` per cycle parity: a dirtied column heats
itself and both neighbours (with ring wrap-around) at both parities; a
heated column cools a parity once it has been examined in a cycle of
that parity.  Cold columns provably admit no candidate, so the search
examines only recent activity — with identical candidate sets,
ordering, and committed moves to the exhaustive scan (``incremental =
False`` keeps the reference full-scan path for the determinism property
tests).  The examined cells are found per lane ``l`` with whole-ring
masks over the grid's lane bits: occupied on ``l``, neither occupied
nor faulty on ``l - 1``, hot, and in the D2 parity class of ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import RMBConfig
from repro.core.derived import DerivedState
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth, move_condition, move_sequences_up
from repro.core.virtual_bus import BusPhase, VirtualBus
from repro.errors import ProtocolError
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.wiring import Observability

#: Bound once: ``_candidate_at`` tests every candidate's phase.
_EXTENDING = BusPhase.EXTENDING


def _zero_time() -> float:
    """Default ``now`` source for engines built without a simulator.

    A module-level function rather than a lambda so a standalone engine
    still pickles (checkpoint/restore walks the whole ring object graph).
    """
    return 0.0


#: A synchronous move candidate: ``(lane, segment, bus_id, hop, bus)``.
#: ``(lane, segment)`` is unique per candidate, so sorting never compares
#: buses.
_Candidate = tuple[int, int, int, int, VirtualBus]


@dataclass
class CompactionStats:
    """Aggregated compaction activity."""

    moves: int = 0
    cycles_run: int = 0
    evacuations: int = 0
    condition_counts: dict[str, int] = field(default_factory=dict)

    def count(self, condition: str) -> None:
        self.moves += 1
        self.condition_counts[condition] = (
            self.condition_counts.get(condition, 0) + 1
        )


class CompactionEngine(DerivedState):
    """Executes compaction moves against a grid and its virtual buses."""

    _DERIVED = ("_hot",)

    def __init__(
        self,
        config: RMBConfig,
        grid: SegmentGrid,
        buses: dict[int, VirtualBus],
        trace: Optional[TraceRecorder] = None,
        now: Optional[Callable[[], float]] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.config = config
        self.grid = grid
        self.buses = buses
        self.trace = trace
        # Cached at construction, as in the routing engine: a recorder
        # filtered to no kinds costs one branch per move, not a call.
        self._trace_on = trace is not None and trace.enabled
        self._now = now if now is not None else _zero_time
        # One-branch obs discipline (see repro.obs): lane moves attach to
        # the migrating message's span only when observability is armed.
        self.obs = obs
        self._obs_on = obs is not None
        self.stats = CompactionStats()
        #: INCs whose switching logic has dropped out (fault model): they
        #: perform no compaction work on their output segments.  Shared
        #: with the fault manager, which adds/removes indices.
        self.dropped_incs: set[int] = set()
        #: Use the dirty-set candidate search in :meth:`global_pass`.
        #: False selects the reference exhaustive scan (same results,
        #: used by the determinism property tests and as documentation
        #: of the semantics the incremental path must reproduce).
        self.incremental = True
        self.rebuild_derived()

    def rebuild_derived(self) -> None:
        """Nothing is hot: ``_hot[p]`` holds the columns still to examine
        at cycle parity ``p``, fed from the grid's dirty columns with ±1
        expansion."""
        self._hot: list[int] = [0, 0]

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------
    def _hop_at(self, segment: int, lane: int) -> Optional[tuple[VirtualBus, int]]:
        """The (bus, hop index) holding a segment, or ``None``."""
        bus_id = self.grid.occupant(segment, lane)
        if bus_id is None:
            return None
        bus = self.buses[bus_id]
        hop = bus.hop_of_segment(segment)
        if hop is None or bus.hops[hop] != lane or hop not in bus.held_hops():
            raise ProtocolError(
                f"grid/bus inconsistency at segment ({segment}, {lane}): "
                f"{bus.describe()}"
            )
        return bus, hop

    def move_legal(self, segment: int, lane: int,
                   ignore_head_rule: bool = False) -> bool:
        """D1: may the occupant of ``(segment, lane)`` drop one lane now?

        ``ignore_head_rule`` waives D9 for fault evacuation: a travelling
        header sitting on a dying segment must escape even if that drags
        it low.
        """
        if lane < 1:
            return False
        held = self._hop_at(segment, lane)
        if held is None:
            return False
        if not self.grid.is_usable(segment, lane - 1):
            return False
        bus, hop = held
        if (not ignore_head_rule
                and not self.config.compact_head_while_extending
                and bus.phase is BusPhase.EXTENDING
                and hop == len(bus.hops) - 1
                and not bus.complete):
            # D9: keep a travelling header high so packed columns ahead
            # stay within its +/-1 reach (see RMBConfig docs).
            return False
        upstream = bus.upstream_lane(hop)
        if upstream is not None and upstream not in (lane - 1, lane):
            return False
        downstream = bus.downstream_lane(hop)
        if downstream is not None and downstream not in (lane - 1, lane):
            return False
        return True

    def segment_state(self, segment: int, lane: int) -> str:
        """Figure 8 classification: ``free`` / ``in-use`` /
        ``switchable-down``."""
        if self.grid.is_free(segment, lane):
            return "free"
        return "switchable-down" if self.move_legal(segment, lane) else "in-use"

    @staticmethod
    def considered(segment: int, lane: int, cycle: int) -> bool:
        """D2 parity rule: is ``(segment, lane)`` evaluated in ``cycle``?"""
        return (segment + lane + cycle) % 2 == 0

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def _commit(self, bus: VirtualBus, hop: int, segment: int, lane: int,
                cycle: int) -> None:
        """Execute one legal move, updating grid, bus, registers and stats.

        Every D1 condition is tested again here, on live state: Figure 7
        (:func:`move_condition`) raises if the hop's neighbour lanes fall
        outside it, and the grid raises if the target is taken or
        unhealthy or the occupant is wrong.
        """
        hops = bus.hops
        upstream = hops[hop - 1] if hop else None
        downstream = hops[hop + 1] if hop < len(hops) - 1 else None
        condition = move_condition(upstream, lane, downstream)
        self.grid.move_down(segment, lane, bus.bus_id)
        hops[hop] = lane - 1
        bus.record.lanes_visited.add(lane - 1)
        stats = self.stats  # CompactionStats.count, inline
        stats.moves += 1
        counts = stats.condition_counts
        counts[condition] = counts.get(condition, 0) + 1
        if self._trace_on:
            self.trace.record(
                self._now(), "compaction_move", f"bus{bus.bus_id}",
                segment=segment, lane_from=lane, lane_to=lane - 1,
                cycle=cycle, condition=condition,
            )
        if self._obs_on:
            self.obs.spans.event(
                bus.message.message_id, self._now(), "lane_move",
                segment=segment, lane_from=lane, lane_to=lane - 1,
            )

    # ------------------------------------------------------------------
    # Synchronous mode
    # ------------------------------------------------------------------
    def global_pass(self, cycle: int) -> int:
        """One synchronous compaction cycle over the whole ring.

        Decisions are taken on a start-of-cycle snapshot; conflicting moves
        on adjacent hops of one bus are resolved higher-lane-first (D3).
        Every other candidate is still legal when its turn comes (P6).
        Returns the number of moves committed.
        """
        if not self.config.compaction_enabled:
            return 0
        self.stats.cycles_run += 1
        if not self.buses:
            # Nothing to move or evacuate.  The dirty columns wait for
            # the next busy pass, whose hot set is then a superset, which
            # yields the same candidates (DESIGN.md §9 P2, P9).
            return 0
        self._evacuate_all(cycle)
        if self.incremental:
            candidates = self._candidates_incremental(cycle)
        else:
            candidates = self._candidates_full(cycle)

        committed_hops: set[tuple[int, int]] = set()  # (bus_id, hop)
        moves = 0
        for lane, segment, bus_id, hop, bus in sorted(candidates,
                                                      reverse=True):
            if (bus_id, hop - 1) in committed_hops or \
               (bus_id, hop + 1) in committed_hops:
                continue  # D3: adjacent hop of the same bus already moved
            self._commit(bus, hop, segment, lane, cycle)
            committed_hops.add((bus_id, hop))
            moves += 1
        return moves

    def _candidate_at(self, segment: int, lane: int, bus_id: int,
                      candidates: list[_Candidate]) -> None:
        """Append ``(lane, segment, bus_id, hop, bus)`` if D1 and D9 allow it.

        Shared filter of the full and incremental candidate builders; the
        caller has already applied the parity rule (D2), the dropped-INC
        exclusion, and the free-target check.  This is the pass's only D1
        decision for the move (DESIGN.md §9 P6).
        """
        bus = self.buses[bus_id]
        hops = bus.hops
        last = len(hops) - 1
        hop = (segment - bus.source) % bus.ring_size
        if hop > last or hops[hop] != lane:
            raise ProtocolError(
                f"grid/bus inconsistency at segment ({segment}, {lane}): "
                f"{bus.describe()}"
            )
        if (hop == last
                and bus.phase is _EXTENDING
                and last + 1 != bus.span
                and not self.config.compact_head_while_extending):
            return  # D9: travelling headers stay high
        if hop:
            upstream = hops[hop - 1]
            if upstream != lane and upstream != lane - 1:
                return
        if hop < last:
            downstream = hops[hop + 1]
            if downstream != lane and downstream != lane - 1:
                return
        candidates.append((lane, segment, bus_id, hop, bus))

    def _candidates_full(self, cycle: int) -> list[_Candidate]:
        """Reference candidate builder: exhaustive scan of the grid.

        No mutation happens between here and the commit loop, so checking
        ``is_usable`` live is identical to the historical start-of-cycle
        free-set snapshot.
        """
        candidates: list[_Candidate] = []
        for segment, lane, bus_id in list(self.grid.iter_occupied()):
            if segment in self.dropped_incs:
                continue
            if lane < 1 or not self.considered(segment, lane, cycle):
                continue
            if not self.grid.is_usable(segment, lane - 1):
                continue
            self._candidate_at(segment, lane, bus_id, candidates)
        return candidates

    def _absorb_dirty(self) -> None:
        """Heat the ±1 neighbourhood of every dirtied column, with ring
        wrap-around, at both parities."""
        dirty = self.grid.collect_dirty()
        if not dirty:
            return
        nodes = self.grid.nodes
        top = nodes - 1
        heated = (dirty | dirty << 1 | dirty >> 1 | dirty >> top
                  | (dirty & 1) << top) & ((1 << nodes) - 1)
        hot = self._hot
        hot[0] |= heated
        hot[1] |= heated

    def _candidates_incremental(self, cycle: int) -> list[_Candidate]:
        """Candidate builder restricted to hot columns.

        A cold column has, by construction, been examined at both cycle
        parities since the last change anywhere in its ±1 neighbourhood,
        and every state a candidate's legality reads (own column's
        occupancy and health, neighbours' hop lanes, occupant phase via
        :meth:`SegmentGrid.touch`) dirties that neighbourhood when it
        changes — so cold columns contribute no candidates and the
        result equals :meth:`_candidates_full`'s.  Per lane ``l >= 1``
        one mask selects the cells the full scan would pass to
        :meth:`_candidate_at`: occupied at ``l``, usable at ``l - 1``,
        in a hot column that no dropped INC owns, and considered this
        cycle (D2).  They are found from the top lane and the highest
        column down, the order ``global_pass`` commits them in, so its
        sort finds them sorted.
        """
        self._absorb_dirty()
        hot = self._hot
        parity = cycle & 1
        examined = hot[parity]
        # Cool the examined parity; this pass's commits re-dirty their
        # neighbourhoods and are absorbed at the next pass.
        hot[parity] = 0
        grid = self.grid
        bits = grid._column_bits
        for inc in self.dropped_incs:
            examined &= ~bits[inc]
        candidates: list[_Candidate] = []
        if not examined:
            return candidates
        occupant = grid._occupant
        occupied = grid._occupied_bits
        faulty = grid._faulty_bits
        considered = grid._parity_columns
        for lane in range(grid.lanes - 1, 0, -1):
            # D2: columns with (segment + lane + cycle) even.
            found = (occupied[lane] & ~(occupied[lane - 1] | faulty[lane - 1])
                     & examined & considered[(lane + cycle) & 1])
            while found:
                segment = found.bit_length() - 1
                found ^= bits[segment]
                self._candidate_at(segment, lane, occupant[segment][lane],
                                   candidates)
        return candidates

    # ------------------------------------------------------------------
    # Asynchronous mode
    # ------------------------------------------------------------------
    def inc_pass(self, inc_index: int, cycle: int) -> int:
        """Compaction work of one INC for its local ``cycle``.

        The INC owns the segments on its output side.  Moves are committed
        immediately (event-atomic); the parity rule keeps adjacent INCs'
        concurrent work on disjoint lanes.
        """
        if not self.config.compaction_enabled or \
                inc_index in self.dropped_incs:
            return 0
        moves = self._evacuate_segment_column(inc_index, cycle)
        if self.incremental:
            # Same hot-column gate as the synchronous candidate search,
            # restricted to this INC's column: evacuation above is
            # unconditional (a dying port is an emergency and ignores
            # parity), but the regular lane walk is skipped when the
            # column is cold for this local-cycle parity.  Each INC's
            # local counter alternates parity strictly, so both parities
            # are examined before a column may go cold — the cold-column
            # argument of :meth:`_candidates_incremental` carries over
            # unchanged.
            self._absorb_dirty()
            hot = self._hot
            parity = cycle & 1
            bit = self.grid._column_bits[inc_index]
            if not hot[parity] & bit:
                return moves
            hot[parity] ^= bit
        for lane in range(1, self.grid.lanes):
            if not self.considered(inc_index, lane, cycle):
                continue
            if self.move_legal(inc_index, lane):
                self._commit(*self._hop_at(inc_index, lane), inc_index, lane,
                             cycle)
                moves += 1
        return moves

    # ------------------------------------------------------------------
    # Fault evacuation (make-before-break off dying segments)
    # ------------------------------------------------------------------
    def _evacuate_all(self, cycle: int) -> int:
        """Migrate buses off every DYING segment that allows a legal move.

        Driven by the grid's faulty index — O(faulty), and a no-op in the
        fault-free common case — visiting ``(segment, lane)`` pairs in the
        same ascending order the historical full column scan did.
        """
        if self.grid.faulty_count() == 0:
            return 0
        moved = 0
        for segment, lane, health in list(self.grid.faulty_segments()):
            if health is PortHealth.DYING and \
                    segment not in self.dropped_incs:
                moved += self._evacuate(segment, lane, cycle)
        return moved

    def _evacuate_segment_column(self, segment: int, cycle: int) -> int:
        """Evacuation work of one INC: escape moves for its dying outputs.

        Evacuation ignores the odd/even parity schedule — a dying segment
        is an emergency, and the grace window before the segment dies
        spans several compaction cycles, so the INC simply performs the
        escape move in its next work slot (fault model F2).  Downward
        moves are preferred (they compose with normal compaction); an
        upward move is the fallback for a bus trapped with no healthy
        lane below.
        """
        moved = 0
        for lane in range(self.grid.lanes):
            if self.grid.health(segment, lane) is PortHealth.DYING:
                moved += self._evacuate(segment, lane, cycle)
        return moved

    def _evacuate(self, segment: int, lane: int, cycle: int) -> int:
        """Move the occupant of a dying segment off it: down if D1 allows
        (D9 waived), else up.  Returns the number of moves (0 or 1)."""
        if self.grid.occupant(segment, lane) is None:
            return 0
        if self.move_legal(segment, lane, ignore_head_rule=True):
            self._commit(*self._hop_at(segment, lane), segment, lane, cycle)
            self.stats.evacuations += 1
            return 1
        if self._evacuate_up_legal(segment, lane):
            self._commit_up(segment, lane, cycle)
            return 1
        return 0

    def _evacuate_up_legal(self, segment: int, lane: int) -> bool:
        """Mirror of D1 for an upward escape from a dying segment."""
        if lane + 1 >= self.grid.lanes:
            return False
        held = self._hop_at(segment, lane)
        if held is None:
            return False
        if not self.grid.is_usable(segment, lane + 1):
            return False
        bus, hop = held
        upstream = bus.upstream_lane(hop)
        if upstream is not None and upstream not in (lane, lane + 1):
            return False
        downstream = bus.downstream_lane(hop)
        if downstream is not None and downstream not in (lane, lane + 1):
            return False
        return True

    def _commit_up(self, segment: int, lane: int, cycle: int) -> None:
        """Execute one legal upward evacuation move."""
        held = self._hop_at(segment, lane)
        assert held is not None
        bus, hop = held
        upstream = bus.upstream_lane(hop)
        downstream = bus.downstream_lane(hop)
        for sequence in move_sequences_up(upstream, lane, downstream,
                                          self.grid.lanes):
            if not sequence.validates():
                raise ProtocolError(
                    f"illegal register sequence during evacuation of "
                    f"{bus.describe()} at segment {segment}"
                )
        self.grid.move_up(segment, lane, bus.bus_id)
        bus.hops[hop] = lane + 1
        bus.record.lanes_visited.add(lane + 1)
        self.stats.evacuations += 1
        if self._trace_on:
            self.trace.record(
                self._now(), "evacuation_move", f"bus{bus.bus_id}",
                segment=segment, lane_from=lane, lane_to=lane + 1,
                cycle=cycle,
            )
        if self._obs_on:
            self.obs.spans.event(
                bus.message.message_id, self._now(), "lane_move",
                segment=segment, lane_from=lane, lane_to=lane + 1,
            )

    # ------------------------------------------------------------------
    # Helpers for tests and benchmarks
    # ------------------------------------------------------------------
    def quiesce(self, max_cycles: int = 10_000) -> int:
        """Run synchronous cycles until no move fires twice in a row.

        Returns the number of cycles executed.  Two consecutive idle cycles
        are required because the parity rule hides half the lanes each
        cycle.  An empty grid short-circuits to zero cycles: with nothing
        occupied there is nothing to move or evacuate, so the idle passes
        would only burn time.
        """
        if self.grid.occupied_segments() == 0:
            return 0
        idle_streak = 0
        cycles = 0
        start = self.stats.cycles_run
        while idle_streak < 2:
            if cycles >= max_cycles:
                raise ProtocolError(
                    f"compaction failed to quiesce within {max_cycles} cycles"
                )
            moved = self.global_pass(start + cycles)
            idle_streak = idle_streak + 1 if moved == 0 else 0
            cycles += 1
        return cycles

    def fully_packed(self) -> bool:
        """True iff every segment column is bottom-packed *where possible*.

        Note that packing is constrained by bus connectivity (a hop cannot
        sit more than one lane from its neighbours), so column-packedness
        is only guaranteed at quiescence for buses that are straight; the
        stronger per-column check lives in :meth:`SegmentGrid.is_packed`
        and is asserted by the benchmarks under the appropriate workloads.
        """
        for segment in range(self.grid.nodes):
            for lane in range(1, self.grid.lanes):
                if self.move_legal(segment, lane):
                    return False
        return True
