"""Unit tests for the occupied walk, the faulty index, the lane bits and
the dirty-column tracking behind the incremental compaction candidate
search.  A set of columns is an ``int`` whose bit ``s`` is column ``s``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compaction import CompactionEngine
from repro.core.config import RMBConfig
from repro.core.network import RMBRing
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.errors import ConfigurationError
from tests.core.test_compaction import add_bus


# ---------------------------------------------------------------------------
# Dirty-column bookkeeping
# ---------------------------------------------------------------------------

def columns(*segments):
    """The ``int`` whose bits are ``segments``."""
    return sum(1 << segment for segment in set(segments))


def test_grid_starts_clean():
    grid = SegmentGrid(8, 3)
    assert grid.collect_dirty() == 0


def test_occupancy_mutations_mark_dirty():
    grid = SegmentGrid(8, 3)
    grid.claim(2, 2, bus_id=1)
    assert grid.collect_dirty() == columns(2)
    grid.move_down(2, 2, bus_id=1)
    grid.release(2, 1, bus_id=1)
    assert grid.collect_dirty() == columns(2)
    assert grid.collect_dirty() == 0


def test_collect_dirty_drains():
    grid = SegmentGrid(8, 3)
    for segment in (5, 1, 3):
        grid.touch(segment)
    assert grid.collect_dirty() == columns(1, 3, 5)
    assert grid.collect_dirty() == 0
    grid.touch(2)
    assert grid.collect_dirty() == columns(2)


def test_touch_wraps_around_the_ring():
    grid = SegmentGrid(8, 3)
    grid.touch(9)
    assert grid.collect_dirty() == columns(1)


def test_health_changes_mark_dirty():
    grid = SegmentGrid(8, 3)
    grid.collect_dirty()
    grid.set_health(4, 0, PortHealth.DEAD)
    assert grid.collect_dirty() & columns(4)


# ---------------------------------------------------------------------------
# The faulty index and the occupied walk agree with the exhaustive
# definitions
# ---------------------------------------------------------------------------

def test_faulty_index_tracks_health_transitions():
    grid = SegmentGrid(8, 3)
    grid.set_health(1, 2, PortHealth.DEAD)
    grid.set_health(5, 0, PortHealth.DYING)
    assert grid.faulty_count() == 2
    assert list(grid.faulty_segments()) == [
        (1, 2, PortHealth.DEAD),
        (5, 0, PortHealth.DYING),
    ]
    grid.set_health(1, 2, PortHealth.OK)
    assert grid.faulty_count() == 1
    assert list(grid.faulty_segments()) == [(5, 0, PortHealth.DYING)]


HEALTHS = (PortHealth.OK, PortHealth.DYING, PortHealth.DEAD)


def _apply(grid, cells, faulty, op, pick, bus_id):
    """Apply one legal mutation to ``grid`` and to the test's own model:
    ``cells`` maps ``(segment, lane)`` to its bus id and ``faulty`` to
    its health when that is not OK.  Skip an illegal one."""
    if op in ("claim", "set_health"):
        cell = divmod(pick % (grid.nodes * grid.lanes), grid.lanes)
        if op == "set_health":
            health = HEALTHS[bus_id % len(HEALTHS)]
            grid.set_health(*cell, health)
            faulty.pop(cell, None)
            if health is not PortHealth.OK:
                faulty[cell] = health
        elif cell not in cells and cell not in faulty:
            grid.claim(*cell, bus_id)
            cells[cell] = bus_id
        return
    if not cells:
        return
    segment, lane = sorted(cells)[pick % len(cells)]
    owner = cells[(segment, lane)]
    if op == "release":
        grid.release(segment, lane, owner)
        del cells[(segment, lane)]
        return
    target = (segment, lane - 1 if op == "move_down" else lane + 1)
    if 0 <= target[1] < grid.lanes and target not in cells \
            and target not in faulty:
        getattr(grid, op)(segment, lane, owner)
        del cells[(segment, lane)]
        cells[target] = owner


def _check_walk(grid, cells, faulty):
    # Segment-major, lane-minor ascending: the order of the full scan.
    assert list(grid.iter_occupied()) == sorted(
        (segment, lane, bus_id) for (segment, lane), bus_id in cells.items())
    assert grid.occupied_segments() == len(cells)
    assert grid.lane_occupancy() == [
        sum(1 for _, held in cells if held == lane)
        for lane in range(grid.lanes)]
    assert list(grid.faulty_segments()) == sorted(
        (segment, lane, health) for (segment, lane), health in faulty.items())
    # The lane bits: bit s of lane l is set while (s, l) is occupied, or
    # not OK; the rows say the same.
    assert grid._occupied_bits == [
        columns(*(segment for segment, held in cells if held == lane))
        for lane in range(grid.lanes)]
    assert grid._faulty_bits == [
        columns(*(segment for segment, held in faulty if held == lane))
        for lane in range(grid.lanes)]
    for segment in range(grid.nodes):
        for lane in range(grid.lanes):
            assert grid.occupant(segment, lane) == cells.get((segment, lane))
            assert grid.health(segment, lane) is \
                faulty.get((segment, lane), PortHealth.OK)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.lists(st.tuples(
           st.sampled_from(("claim", "release", "move_down", "move_up",
                            "set_health")),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=7)), max_size=40))
def test_iter_occupied_matches_full_scan_order(nodes, lanes, ops):
    """After any claim, release, lane-move and health sequence, the row
    walk, the occupied count, the per-lane counts, the faulty index and
    the lane bits describe exactly the occupied and faulty cells, live
    and after a rebuild from the rows."""
    grid = SegmentGrid(nodes, lanes)
    cells, faulty = {}, {}
    for op, pick, bus_id in ops:
        _apply(grid, cells, faulty, op, pick, bus_id)
    _check_walk(grid, cells, faulty)
    grid.rebuild_derived()
    _check_walk(grid, cells, faulty)


# ---------------------------------------------------------------------------
# Compaction engine consumption
# ---------------------------------------------------------------------------

def _engine(nodes=8, lanes=3):
    config = RMBConfig(nodes=nodes, lanes=lanes)
    grid = SegmentGrid(nodes, lanes)
    return CompactionEngine(config, grid, buses={}), grid


def test_quiesce_short_circuits_on_empty_grid():
    engine, grid = _engine()
    assert grid.occupied_segments() == 0
    assert engine.quiesce() == 0
    assert engine.stats.cycles_run == 0


def test_global_pass_cools_untouched_columns():
    engine, grid = _engine()
    # A one-hop bus on lane 0 cannot move; claiming it dirties column 3.
    add_bus(grid, engine.buses, 0, source=3, destination=4, lanes=[0])
    # Two passes (one per cycle parity) examine the heated neighbourhood
    # 2..4; each cools its own parity, so afterwards nothing is hot and
    # passes do no candidate work.
    engine.global_pass(cycle=0)
    assert engine._hot == [0, columns(2, 3, 4)]
    engine.global_pass(cycle=1)
    assert engine._hot == [0, 0]
    engine.global_pass(cycle=2)
    assert engine._hot == [0, 0]


def test_dirty_heating_expands_neighbourhood():
    engine, grid = _engine()
    grid.touch(4)
    engine._absorb_dirty()
    assert engine._hot == [columns(3, 4, 5)] * 2


@pytest.mark.parametrize("dropped", [(), (2,), (0, 3)])
@pytest.mark.parametrize("cycle", [0, 1])
def test_lane_masks_select_the_full_scans_candidates(cycle, dropped):
    """With every column hot, the masks pick the cells the exhaustive
    scan passes on: not under a dropped INC, nor above a faulty lane."""
    engine, grid = _engine(nodes=8, lanes=3)
    add_bus(grid, engine.buses, 0, source=0, destination=6, lanes=[2] * 6)
    add_bus(grid, engine.buses, 1, source=5, destination=2, lanes=[1] * 5)
    grid.set_health(4, 1, PortHealth.DEAD)
    engine.dropped_incs.update(dropped)
    full = sorted(engine._candidates_full(cycle))
    assert full
    assert sorted(engine._candidates_incremental(cycle)) == full
    assert not {(segment, lane) for lane, segment, *_ in full} & {
        (4, 2), *((inc, lane) for inc in dropped for lane in (1, 2))}


@pytest.mark.parametrize("touched, heated", [(0, (7, 0, 1)), (7, (6, 7, 0))])
def test_heating_wraps_around_the_ring(touched, heated):
    engine, grid = _engine(nodes=8)
    grid.touch(touched)
    engine._absorb_dirty()
    assert engine._hot == [columns(*heated)] * 2
    for parity in (0, 1):
        engine._candidates_incremental(cycle=parity)
    assert engine._hot == [0, 0]


# ---------------------------------------------------------------------------
# check_level wiring
# ---------------------------------------------------------------------------

def test_check_level_off_disables_monitor():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, check_level="off"), seed=1)
    assert ring.monitor is None


def test_check_level_full_installs_monitor():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=1)
    assert ring.monitor is not None


def test_check_level_rejects_unknown_value():
    with pytest.raises(ConfigurationError):
        RMBConfig(nodes=8, lanes=3, check_level="never")
