"""Unit tests for the segment occupancy grid."""

import pytest

from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.errors import CapacityError, ConfigurationError


def test_grid_starts_empty():
    grid = SegmentGrid(4, 3)
    assert grid.occupied_segments() == 0
    assert grid.utilization() == 0.0
    assert grid.column(0) == [None, None, None]
    assert grid.used_lanes(0) == []


def test_claim_and_release_roundtrip():
    grid = SegmentGrid(4, 3)
    grid.claim(1, 2, bus_id=7)
    assert grid.occupant(1, 2) == 7
    assert not grid.is_free(1, 2)
    assert grid.used_lanes(1) == [2]
    grid.release(1, 2, bus_id=7)
    assert grid.is_free(1, 2)
    assert grid.total_claims == 1
    assert grid.total_releases == 1


def test_double_claim_rejected():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 0, bus_id=1)
    with pytest.raises(CapacityError):
        grid.claim(0, 0, bus_id=2)


def test_release_by_wrong_owner_rejected():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 0, bus_id=1)
    with pytest.raises(CapacityError):
        grid.release(0, 0, bus_id=2)


def test_segment_index_wraps_modulo_nodes():
    grid = SegmentGrid(4, 2)
    grid.claim(5, 1, bus_id=3)     # 5 mod 4 == 1
    assert grid.occupant(1, 1) == 3
    assert not grid.is_free(-3, 1)  # -3 mod 4 == 1


def test_move_down_requires_free_target():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 2, bus_id=1)
    grid.claim(0, 1, bus_id=2)
    with pytest.raises(CapacityError):
        grid.move_down(0, 2, bus_id=1)
    grid.release(0, 1, bus_id=2)
    grid.move_down(0, 2, bus_id=1)
    assert grid.occupant(0, 1) == 1
    assert grid.is_free(0, 2)


def test_move_down_from_lane_zero_rejected():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 0, bus_id=1)
    with pytest.raises(CapacityError):
        grid.move_down(0, 0, bus_id=1)


def test_move_down_requires_ownership():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 2, bus_id=1)
    with pytest.raises(CapacityError):
        grid.move_down(0, 2, bus_id=99)


def test_utilization_fraction():
    grid = SegmentGrid(4, 2)
    grid.claim(0, 0, 1)
    grid.claim(1, 1, 2)
    assert grid.utilization() == pytest.approx(2 / 8)


def test_iter_occupied_yields_triplets():
    grid = SegmentGrid(3, 2)
    grid.claim(2, 0, 9)
    assert list(grid.iter_occupied()) == [(2, 0, 9)]


def test_is_packed_detects_gaps():
    grid = SegmentGrid(4, 3)
    grid.claim(0, 0, 1)
    assert grid.is_packed(0)
    grid.claim(0, 2, 2)
    assert not grid.is_packed(0)   # gap at lane 1
    grid.claim(0, 1, 3)
    assert grid.is_packed(0)


def test_empty_column_is_packed():
    grid = SegmentGrid(4, 3)
    assert grid.is_packed(2)


def test_column_returns_copy():
    grid = SegmentGrid(4, 2)
    column = grid.column(0)
    column[0] = 42
    assert grid.is_free(0, 0)


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigurationError):
        SegmentGrid(1, 3)
    with pytest.raises(ConfigurationError):
        SegmentGrid(4, 0)


def test_every_mutation_bumps_only_its_column_epoch():
    """Parked headers rely on this: a column whose epoch is unchanged
    has the same occupancy and health it had when the epoch was read."""
    grid = SegmentGrid(4, 3)
    steps = [
        lambda: grid.claim(5, 2, bus_id=1),          # column 1 (wraps)
        lambda: grid.move_down(1, 2, bus_id=1),
        lambda: grid.move_up(1, 1, bus_id=1),
        lambda: grid.set_health(1, 0, PortHealth.DYING),
        lambda: grid.set_health(1, 0, PortHealth.OK),
        lambda: grid.release(1, 2, bus_id=1),
    ]
    for step in steps:
        before = list(grid.epochs)
        step()
        assert grid.epochs == [before[0], before[1] + 1,
                               before[2], before[3]]
    before = list(grid.epochs)
    grid.set_health(1, 0, PortHealth.OK)   # no change, no bump
    grid.touch(1)                          # not an occupancy change
    assert grid.epochs == before
