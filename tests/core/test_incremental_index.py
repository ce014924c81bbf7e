"""Unit tests for the occupancy/faulty indexes and dirty-set tracking
behind the incremental compaction candidate search."""

import pytest

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
# Faulty / occupied indexes agree with the exhaustive definitions
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


def test_iter_occupied_matches_full_scan_order():
    grid = SegmentGrid(8, 3)
    grid.claim(6, 1, bus_id=3)
    grid.claim(2, 0, bus_id=1)
    grid.claim(2, 2, bus_id=2)
    # Segment-major, lane-minor ascending — the historical scan order.
    assert list(grid.iter_occupied()) == [(2, 0, 1), (2, 2, 2), (6, 1, 3)]


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
