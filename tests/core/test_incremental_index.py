"""Unit tests for the occupied walk, the faulty index and dirty-set
tracking behind the incremental compaction candidate search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compaction import CompactionEngine
from repro.core.config import RMBConfig
from repro.core.network import RMBRing
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Dirty-set bookkeeping
# ---------------------------------------------------------------------------

def test_grid_starts_clean():
    grid = SegmentGrid(8, 3)
    assert grid.collect_dirty() == set()


def test_occupancy_mutations_mark_dirty():
    grid = SegmentGrid(8, 3)
    grid.claim(2, 2, bus_id=1)
    assert grid.collect_dirty() == {2}
    grid.move_down(2, 2, bus_id=1)
    grid.release(2, 1, bus_id=1)
    assert grid.collect_dirty() == {2}
    assert grid.collect_dirty() == set()


def test_collect_dirty_drains():
    grid = SegmentGrid(8, 3)
    for segment in (5, 1, 3):
        grid.touch(segment)
    collected = grid.collect_dirty()
    assert collected == {1, 3, 5}
    assert grid.collect_dirty() == set()
    grid.touch(2)
    assert collected == {1, 3, 5}  # the drained set is the caller's


def test_touch_wraps_around_the_ring():
    grid = SegmentGrid(8, 3)
    grid.touch(9)
    assert grid.collect_dirty() == {1}


def test_health_changes_mark_dirty():
    grid = SegmentGrid(8, 3)
    grid.collect_dirty()
    grid.set_health(4, 0, PortHealth.DEAD)
    assert 4 in grid.collect_dirty()


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


def _apply(grid, cells, op, pick, bus_id):
    """Apply one legal occupancy mutation to ``grid`` and to ``cells``,
    the test's own ``(segment, lane) -> bus_id`` model; skip an illegal
    one."""
    if op == "claim":
        cell = divmod(pick % (grid.nodes * grid.lanes), grid.lanes)
        if cell not in cells:
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
    target = lane - 1 if op == "move_down" else lane + 1
    if 0 <= target < grid.lanes and (segment, target) not in cells:
        getattr(grid, op)(segment, lane, owner)
        del cells[(segment, lane)]
        cells[(segment, target)] = owner


def _check_walk(grid, cells):
    # Segment-major, lane-minor ascending: the order of the full scan.
    assert list(grid.iter_occupied()) == sorted(
        (segment, lane, bus_id) for (segment, lane), bus_id in cells.items())
    assert grid.occupied_segments() == len(cells)
    assert grid.lane_occupancy() == [
        sum(1 for _, held in cells if held == lane)
        for lane in range(grid.lanes)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.lists(st.tuples(
           st.sampled_from(("claim", "release", "move_down", "move_up")),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=7)), max_size=40))
def test_iter_occupied_matches_full_scan_order(nodes, lanes, ops):
    """After any claim, release and lane-move sequence, the row walk, the
    occupied count and the per-lane counts describe exactly the occupied
    cells, live and after a rebuild from the rows."""
    grid = SegmentGrid(nodes, lanes)
    cells = {}
    for op, pick, bus_id in ops:
        _apply(grid, cells, op, pick, bus_id)
    _check_walk(grid, cells)
    grid.rebuild_derived()
    _check_walk(grid, cells)


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
    grid.touch(3)
    # Two passes (one per cycle parity) examine the heated neighbourhood;
    # afterwards the hot map is empty and passes do no candidate work.
    engine.global_pass(cycle=0)
    engine.global_pass(cycle=1)
    assert engine._hot == {}
    engine.global_pass(cycle=2)
    assert engine._hot == {}


def test_dirty_heating_expands_neighbourhood():
    engine, grid = _engine()
    grid.touch(4)
    engine._absorb_dirty()
    assert set(engine._hot) == {3, 4, 5}
    assert all(mask == 0b11 for mask in engine._hot.values())


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
