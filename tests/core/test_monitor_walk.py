"""Differential test: the monitor's one walk raises exactly when the
checks it replaces raise.

``InvariantMonitor.check`` visits each bus's hops once (DESIGN.md §9
P7).  The reference below is what the monitor ran before: the public
check functions (:func:`check_grid_bus_agreement`,
:func:`check_bus_shapes`, :func:`check_no_dead_occupancy`,
:func:`check_lemma1`), Table 1 through :func:`validate_ports`, and the
``(bus, hop)``-keyed lane-monotonicity rule, copied here.  It also
requires each bus to be filed under its own id, the one rule the walk
adds: the old checks let a key mismatch pass when the bus held no hop.

Each example runs a small ring (its own monitor armed at full cadence)
to a random tick, lets a fresh monitor and the reference observe that
state, applies one corruption through the public grid API or the bus
fields, and requires both to raise, or both not to.
"""

from __future__ import annotations

from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.core.invariants import (
    InvariantMonitor,
    LaneMonotonicity,
    check_bus_shapes,
    check_grid_bus_agreement,
    check_lemma1,
    check_no_dead_occupancy,
)
from repro.core.ports import validate_ports
from repro.core.status import PortHealth
from repro.errors import InvariantViolation, ProtocolError
from repro.faults import FaultPlan
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring
from tests.core.test_invariants import build_state
from tests.integration.test_fastpath_equivalence import fault_plans


class ReferenceMonitor:
    """The checks the walk replaces, run one after another."""

    def __init__(self, ring: RMBRing) -> None:
        self.grid = ring.grid
        self.buses = ring.buses
        self.controllers = ring.controllers
        self._last: dict[tuple[int, int], int] = {}   # (bus, hop) -> lane

    def check(self) -> None:
        for key, bus in self.buses.items():
            if bus.bus_id != key:
                raise InvariantViolation(f"bus {bus.bus_id} filed as {key}")
        check_grid_bus_agreement(self.grid, self.buses)
        check_bus_shapes(self.buses, self.grid.lanes)
        check_no_dead_occupancy(self.grid)
        self._observe_lanes()
        try:
            validate_ports(self.grid, self.buses)
        except ProtocolError as exc:
            raise InvariantViolation(str(exc)) from exc
        if self.controllers is not None:
            check_lemma1(self.controllers)

    def _observe_lanes(self) -> None:
        live = set()
        for bus in self.buses.values():
            for hop in bus.held_hops():
                key = (bus.bus_id, hop)
                live.add(key)
                lane = bus.hops[hop]
                previous = self._last.get(key)
                if (previous is not None and lane > previous
                        and self.grid.health(bus.segment_index(hop), previous)
                        is PortHealth.OK):
                    raise InvariantViolation(f"{bus.describe()}: {hop} rose")
                self._last[key] = lane
        for key in list(self._last):
            if key not in live:
                del self._last[key]


def raises(check: Callable[[], None]) -> bool:
    try:
        check()
    except InvariantViolation:
        return True
    return False


def build_ring(seed: int, nodes: int, lanes: int, synchronous: bool,
               plan: Optional[FaultPlan]) -> RMBRing:
    config = RMBConfig(nodes=nodes, lanes=lanes, synchronous=synchronous,
                       cycle_period=2.0, check_level="full",
                       retry=RetryPolicy(jitter=0.25, max_retries=8))
    ring = RMBRing(config, seed=seed, fault_plan=plan)
    replay_on_ring(ring, bernoulli_schedule(
        nodes, 150, 0.05, 6, RandomStream(seed, name="walk")))
    return ring


def corrupt(ring: RMBRing, kind: str, pick: int, up: bool,
            released: bool) -> bool:
    """Apply one corruption of ``kind``; False when nothing fits it.

    ``pick`` chooses among the targets, ``up`` is the direction of a
    lane change, and ``released`` prefers a released hop to a held one
    for the bus-only lane changes.
    """
    grid, buses = ring.grid, ring.buses
    lanes = grid.lanes
    step = 1 if up else -1
    ordered = [buses[key] for key in sorted(buses)]
    held = [(bus, hop) for bus in ordered for hop in bus.held_hops()]
    freed = [(bus, hop) for bus in ordered
             for hop in range(len(bus.held_hops()), len(bus.hops))]

    def choose(options: list):
        return options[pick % len(options)] if options else None

    if kind in ("lane_step", "lane_out"):
        target = choose(freed if released and freed else held)
        if target is None:
            return False
        bus, hop = target
        bus.hops[hop] = (bus.hops[hop] + step if kind == "lane_step"
                         else lanes if up else -1)
    elif kind in ("release_cell", "dead_cell"):
        target = choose(held)
        if target is None:
            return False
        bus, hop = target
        if kind == "release_cell":
            grid.release(bus.segment_index(hop), bus.hops[hop], bus.bus_id)
        else:
            grid.set_health(bus.segment_index(hop), bus.hops[hop],
                            PortHealth.DEAD)
    elif kind in ("claim_live", "claim_unknown"):
        cells = [(segment, lane) for segment in range(grid.nodes)
                 for lane in range(lanes) if grid.is_usable(segment, lane)]
        if not cells or (kind == "claim_live" and not ordered):
            return False
        segment, lane = choose(cells)
        owner = (ordered[pick % len(ordered)].bus_id if kind == "claim_live"
                 else max(buses, default=0) + 1000)
        grid.claim(segment, lane, owner)
    elif kind in ("move_cell", "move_hop"):
        movable = [(bus, hop) for bus, hop in held
                   if 0 <= bus.hops[hop] + step < lanes
                   and grid.is_usable(bus.segment_index(hop),
                                      bus.hops[hop] + step)]
        target = choose(movable)
        if target is None:
            return False
        bus, hop = target
        move = grid.move_up if up else grid.move_down
        move(bus.segment_index(hop), bus.hops[hop], bus.bus_id)
        if kind == "move_hop":
            bus.hops[hop] += step
    elif kind == "shrink_released":
        target = choose([bus for bus in ordered if bus.held_hops()])
        if target is None:
            return False
        target.released_from = len(target.held_hops()) - 1
    elif kind == "append_hop":
        target = choose([bus for bus in ordered if bus.hops])
        if target is None:
            return False
        target.hops.append(target.hops[-1])
    elif kind == "pop_hop":
        # A pop under an unmoved released_from would leave it past the
        # end, which the reference's held_hops() cannot index.
        target = choose([bus for bus in ordered if bus.hops and (
            bus.released_from is None
            or bus.released_from < len(bus.hops))])
        if target is None:
            return False
        target.hops.pop()
    elif kind == "extra_hop":
        options = []
        for bus in ordered:
            if bus.hops and bus.released_from is None:
                segment = bus.segment_index(len(bus.hops))
                head = bus.hops[-1]
                options.extend((bus, segment, lane)
                               for lane in (head, head - 1, head + 1)
                               if 0 <= lane < lanes
                               and grid.is_usable(segment, lane))
        target = choose(options)
        if target is None:
            return False
        bus, segment, lane = target
        grid.claim(segment, lane, bus.bus_id)
        bus.hops.append(lane)
    elif kind == "drop_bus":
        target = choose(ordered)
        if target is None:
            return False
        del buses[target.bus_id]
    elif kind == "swap_ids":
        if len(ordered) < 2:
            return False
        index = pick % len(ordered)
        first, second = ordered[index], ordered[index - 1]
        first.bus_id, second.bus_id = second.bus_id, first.bus_id
    elif kind == "skew":
        if ring.controllers is None:
            return False
        choose(ring.controllers).cycle += 2
    else:  # pragma: no cover - the strategy draws from KINDS
        raise AssertionError(kind)
    return True


KINDS = ("lane_step", "lane_out", "release_cell", "claim_live",
         "claim_unknown", "move_cell", "shrink_released", "append_hop",
         "pop_hop", "extra_hop", "drop_bus", "swap_ids", "dead_cell",
         "move_hop", "skew")


def check_corrupted(seed, nodes, lanes, synchronous, plan, tick, kind,
                    pick, up, released) -> Optional[tuple[bool, bool]]:
    """Run to ``tick``, let both monitors observe, corrupt, check again.

    Returns whether ``(walk, reference)`` raised, or None when the state
    had no target for ``kind``.
    """
    ring = build_ring(seed, nodes, lanes, synchronous, plan)
    ring.run(tick)
    monitor = InvariantMonitor(ring.grid, ring.buses, ring.controllers)
    reference = ReferenceMonitor(ring)
    monitor.check()
    reference.check()
    if not corrupt(ring, kind, pick, up, released):
        return None
    return raises(monitor.check), raises(reference.check)


#: Rare draws that only one rule of the walk catches, one per rule.  Each
#: is an explicit example of the differential test, and
#: ``test_each_pinned_draw_is_still_a_violation`` keeps it one.
PINNED = {
    "lane bound: lane k on a released hop next to lane k-1": dict(
        seed=55154, nodes=14, lanes=4, synchronous=False, tick=17,
        kind="lane_out", pick=410200, up=True, released=True),
    "+/-1: a held hop moved down in grid and bus, two off a neighbour": dict(
        seed=42120, nodes=12, lanes=4, synchronous=False, tick=124,
        kind="move_hop", pick=323820, up=False, released=False),
    "span: one consistent extra hop on a complete bus": dict(
        seed=39182, nodes=12, lanes=4, synchronous=True, tick=36,
        kind="extra_hop", pick=781466, up=False, released=True),
    "cell agreement: a held cell moved in the grid only": dict(
        seed=34058, nodes=16, lanes=3, synchronous=True, tick=54,
        kind="move_cell", pick=898574, up=False, released=False),
    "count: a free cell claimed for a live bus": dict(
        seed=1906, nodes=12, lanes=4, synchronous=True, tick=20,
        kind="claim_live", pick=502547, up=False, released=False),
    "monotonicity: a held hop moved up off a healthy lane": dict(
        seed=48534, nodes=12, lanes=4, synchronous=True, tick=42,
        kind="move_hop", pick=313514, up=True, released=False),
}


def pinned(test):
    """Run every pinned draw as an explicit example of ``test``."""
    for case in PINNED.values():
        test = example(plan=None, **case)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       nodes=st.sampled_from([12, 14, 16]),
       lanes=st.integers(min_value=3, max_value=4),
       synchronous=st.booleans(),
       plan=fault_plans(),
       tick=st.integers(min_value=10, max_value=150),
       kind=st.sampled_from(KINDS),
       pick=st.integers(min_value=0, max_value=2 ** 20),
       up=st.booleans(),
       released=st.booleans())
@pinned
def test_the_walk_raises_exactly_when_the_reference_does(**draw):
    outcome = check_corrupted(**draw)
    if outcome is not None:
        walk, reference = outcome
        assert walk == reference


@pytest.mark.parametrize("rule", sorted(PINNED))
def test_each_pinned_draw_is_still_a_violation(rule):
    assert check_corrupted(plan=None, **PINNED[rule]) == (True, True)


def test_a_rise_off_a_faulty_lane_is_an_evacuation():
    grid, buses = build_state(hops=(1, 1))
    monitor = LaneMonotonicity()
    monitor.observe(buses, grid)
    grid.set_health(0, 1, PortHealth.DYING)
    grid.move_up(0, 1, 0)
    buses[0].hops[0] = 2
    monitor.observe(buses, grid)
    assert monitor._last == {0: [2, 1]}


def test_a_rise_off_a_healthy_lane_raises_with_a_grid():
    grid, buses = build_state(hops=(1, 1))
    monitor = LaneMonotonicity()
    monitor.observe(buses, grid)
    grid.move_up(1, 1, 0)
    buses[0].hops[1] = 2
    with pytest.raises(InvariantViolation, match="hop 1 at segment 1 rose"):
        monitor.observe(buses, grid)


def test_a_bus_filed_under_another_id_raises():
    grid, buses = build_state(hops=(2, 2))
    buses[0].released_from = 0
    grid.release(0, 2, 0)
    grid.release(1, 2, 0)
    InvariantMonitor(grid, buses).check()   # holds nothing: no cell to blame
    buses[5] = buses.pop(0)
    with pytest.raises(InvariantViolation, match="filed under bus id 5"):
        InvariantMonitor(grid, buses).check()
