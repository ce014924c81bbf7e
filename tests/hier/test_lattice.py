"""Tests for the n-dimensional lattice of RMB rings (a RingFabric)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.errors import ConfigurationError, ProtocolError
from repro.hier import DimensionOrderRouteMap, RMBLattice
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes


def submit(lattice, message_id, source, destination, data_flits):
    """Offer one journey created now; return its fabric record."""
    lattice.submit(Message(message_id, source, destination,
                           data_flits=data_flits, created_at=lattice.sim.now))
    return lattice.journeys[message_id]


def rings_of(journey):
    """The rings the journey's legs were injected on, in order."""
    return tuple(hop.ring for hop in journey.trail)


def leg_endpoints(journey):
    return [(hop.message.source, hop.message.destination)
            for hop in journey.trail]


def trail_signature(lattice):
    """Every journey's legs as plain values, for run-to-run comparison."""
    return {
        message_id: [(hop.ring, hop.message.source, hop.message.destination,
                      hop.submitted_at, hop.record.completed_at,
                      hop.record.retries, hop.record.nacks)
                     for hop in journey.trail]
        for message_id, journey in lattice.journeys.items()
    }


class TestConstruction:
    def test_ring_count_2d(self):
        lattice = RMBLattice((4, 6), lanes=2)
        # 6 rings along dim 0 (one per column) + 4 along dim 1.
        assert len(lattice.rings) == 6 + 4
        assert lattice.nodes == 24

    def test_ring_count_3d(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        assert len(lattice.rings) == 3 * 16
        assert lattice.nodes == 64

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            RMBLattice((4, 3), lanes=2)    # odd dimension
        with pytest.raises(ConfigurationError):
            RMBLattice((4, 2), lanes=2)    # too small
        with pytest.raises(ConfigurationError):
            RMBLattice((), lanes=2)        # no dimensions

    def test_coordinate_round_trip(self):
        lattice = RMBLattice((4, 6, 8), lanes=1)
        for node in (0, 17, 100, lattice.nodes - 1):
            assert lattice.node_id(lattice.coordinates(node)) == node

    def test_members_register_dimension_major(self):
        # Registration order fixes member seeds (seed + 1, seed + 2, ...),
        # so it is part of the fixed-seed contract.
        lattice = RMBLattice((4, 6), lanes=2)
        names = tuple(lattice.rings)
        assert names[:2] == ("d0@(0,)", "d0@(1,)")
        assert names[6:] == ("d1@(0,)", "d1@(1,)", "d1@(2,)", "d1@(3,)")


class TestJourneys:
    def test_single_dimension_is_one_leg(self):
        lattice = RMBLattice((4, 4), lanes=2)
        record = submit(lattice, 0, lattice.node_id((1, 0)),
                        lattice.node_id((1, 3)), data_flits=4)
        lattice.drain()
        assert record.finished
        assert len(record.plan) == 1

    def test_three_dimensional_journey(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        record = submit(lattice, 0, lattice.node_id((0, 0, 0)),
                        lattice.node_id((2, 3, 1)), data_flits=4)
        lattice.drain()
        assert record.finished
        assert len(record.plan) == 3
        assert rings_of(record) == ("d0@(0, 0)", "d1@(2, 0)",
                                          "d2@(2, 3)")
        # Legs run strictly in sequence.
        for earlier, later in zip(record.trail, record.trail[1:]):
            assert later.message.created_at >= earlier.completed_at

    def test_leg_rings_are_correct(self):
        lattice = RMBLattice((4, 4), lanes=2)
        record = submit(lattice, 0, lattice.node_id((0, 1)),
                        lattice.node_id((2, 3)), data_flits=4)
        lattice.drain()
        # Leg 1 crosses dim 0: from row 0 to row 2 within column 1.
        # Leg 2 crosses dim 1: from column 1 to column 3 within row 2.
        assert leg_endpoints(record) == [(0, 2), (1, 3)]
        assert rings_of(record) == ("d0@(1,)", "d1@(2,)")

    def test_validation(self):
        lattice = RMBLattice((4, 4), lanes=2)
        submit(lattice, 0, 0, 5, data_flits=1)
        with pytest.raises(ProtocolError):
            submit(lattice, 0, 1, 2, data_flits=1)     # duplicate id
        with pytest.raises(ProtocolError):
            submit(lattice, 1, 0, 999, data_flits=1)   # out of range
        with pytest.raises(ConfigurationError):
            submit(lattice, 2, 7, 7, data_flits=1)     # self-message

    def test_multicast_is_refused(self):
        lattice = RMBLattice((4, 4), lanes=2)
        with pytest.raises(ProtocolError):
            lattice.submit(Message(0, 0, 3, data_flits=1,
                                   extra_destinations=(1,)))

    def test_batch_completes_3d(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        for index in range(20):
            source = (index * 7) % 64
            destination = (source + 13 + index) % 64
            if destination == source:
                destination = (destination + 1) % 64
            submit(lattice, index, source, destination, data_flits=6)
        lattice.drain()
        stats = lattice.stats()
        assert stats.completed == 20
        assert stats.latency.count == 20

    def test_turn_is_store_and_forward(self):
        lattice = RMBLattice((4, 4), lanes=2)
        record = submit(lattice, 0, lattice.node_id((0, 0)),
                        lattice.node_id((2, 2)), data_flits=4)
        lattice.drain()
        first, second = record.trail
        assert second.submitted_at == first.completed_at
        assert second.message.created_at == first.completed_at


class TestTwoDimensionalGrid:
    """The 2-D lattice is the classic grid of row and column rings."""

    def test_ring_counts(self):
        grid = RMBLattice((4, 6), lanes=2)
        rows = [ring for ring in grid.rings.values()
                if ring.name.startswith("d1@")]
        cols = [ring for ring in grid.rings.values()
                if ring.name.startswith("d0@")]
        assert len(rows) == 4 and len(cols) == 6
        assert all(ring.config.nodes == 6 for ring in rows)
        assert all(ring.config.nodes == 4 for ring in cols)
        assert grid.nodes == 24

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            RMBLattice((3, 4), lanes=2)   # odd rows
        with pytest.raises(ConfigurationError):
            RMBLattice((4, 2), lanes=2)   # too few cols

    def test_addressing_round_trip(self):
        grid = RMBLattice((4, 6), lanes=2)
        for node in range(grid.nodes):
            row, col = grid.coordinates(node)
            assert node == row * 6 + col
            assert grid.node_id((row, col)) == node

    def test_validation(self):
        grid = RMBLattice((4, 4), lanes=2)
        submit(grid, 0, 0, 5, data_flits=1)
        with pytest.raises(ProtocolError):
            submit(grid, 0, 1, 2, data_flits=1)      # duplicate id
        with pytest.raises(ProtocolError):
            submit(grid, 1, 0, 99, data_flits=1)     # out of range
        with pytest.raises(ConfigurationError):
            submit(grid, 2, 3, 3, data_flits=1)      # self-message
        # The refused offers left the accepted journey alone.
        grid.drain()
        assert list(grid.journeys) == [0]
        assert grid.journeys[0].finished

    def test_same_row_single_leg(self):
        grid = RMBLattice((4, 4), lanes=2)
        record = submit(grid, 0, grid.node_id((1, 0)),
                        grid.node_id((1, 3)), data_flits=8)
        grid.drain()
        assert record.finished
        assert rings_of(record) == ("d1@(1,)",)

    def test_same_column_single_leg(self):
        grid = RMBLattice((4, 4), lanes=2)
        record = submit(grid, 0, grid.node_id((0, 2)),
                        grid.node_id((3, 2)), data_flits=8)
        grid.drain()
        assert record.finished
        assert rings_of(record) == ("d0@(2,)",)

    def test_two_leg_journey_turns_at_destination_row(self):
        grid = RMBLattice((4, 4), lanes=2)
        record = submit(grid, 0, grid.node_id((0, 1)),
                        grid.node_id((2, 3)), data_flits=8)
        grid.drain()
        assert record.finished
        # Leg 1 rode column ring 1 from row 0 to row 2; leg 2 rode row
        # ring 2 from column 1 to column 3.
        assert rings_of(record) == ("d0@(1,)", "d1@(2,)")
        assert leg_endpoints(record) == [(0, 2), (1, 3)]
        # The second leg starts only after the first completes.
        first, second = record.trail
        assert second.message.created_at >= first.completed_at

    def test_full_transpose_traffic(self):
        grid = RMBLattice((4, 4), lanes=2)
        message_id = 0
        for row in range(4):
            for col in range(4):
                if row == col:
                    continue
                submit(grid, message_id, grid.node_id((row, col)),
                       grid.node_id((col, row)), data_flits=6)
                message_id += 1
        grid.drain()
        stats = grid.stats()
        assert stats.completed == message_id
        assert stats.latency.count == message_id
        assert stats.latency.mean > 0
        # Every transpose pair differs in both coordinates: two legs each.
        assert all(len(journey.plan) == 2 for journey in grid.journeys.values())

    def test_latency_orders_single_vs_double_leg(self):
        grid = RMBLattice((6, 6), lanes=2)
        near = submit(grid, 0, grid.node_id((0, 0)), grid.node_id((0, 1)),
                      data_flits=8)
        far = submit(grid, 1, grid.node_id((0, 0)), grid.node_id((3, 3)),
                     data_flits=8)
        grid.drain()
        assert near.latency() < far.latency()


shapes = st.sampled_from([(4, 4), (4, 6), (4, 4, 4), (6, 4, 4)])


@settings(max_examples=60, deadline=None)
@given(shapes, st.data())
def test_plan_follows_dimension_order(shape, data):
    route_map = DimensionOrderRouteMap(shape)
    source = data.draw(st.integers(0, route_map.nodes - 1))
    destination = data.draw(st.integers(0, route_map.nodes - 1).filter(
        lambda node: node != source))
    plan = route_map.plan(Message(0, source, destination, data_flits=1))
    here = route_map.coordinates(source)
    there = route_map.coordinates(destination)
    differing = [dim for dim in range(len(shape)) if here[dim] != there[dim]]
    assert len(plan) == len(differing)
    position = list(here)
    for hop, dim in zip(plan, differing):
        # Each leg changes exactly one coordinate, in ascending order, on
        # the dimension-``dim`` ring through the current position.
        assert hop.ring.startswith(f"d{dim}@")
        assert (hop.source, hop.destination) == (position[dim], there[dim])
        position[dim] = there[dim]
    assert tuple(position) == there


@settings(max_examples=8, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=8,
))
def test_any_batch_drains_on_3d_lattice(pairs):
    lattice = RMBLattice((4, 4, 4), lanes=2)
    for index, (source, destination) in enumerate(pairs):
        submit(lattice, index, source, destination, data_flits=index % 4)
    lattice.drain()
    assert lattice.stats().completed == len(pairs)
    # Conservation: every planned leg ran on its ring, and every ring
    # carried exactly the legs planned on it.
    planned = {}
    for journey in lattice.journeys.values():
        assert rings_of(journey) == tuple(hop.ring
                                                for hop in journey.plan)
        for hop in journey.plan:
            planned[hop.ring] = planned.get(hop.ring, 0) + 1
        # Leg n+1 is submitted at leg n's completion time.
        for earlier, later in zip(journey.trail, journey.trail[1:]):
            assert later.submitted_at == earlier.completed_at
    for name, ring in lattice.rings.items():
        assert ring.routing.completed == planned.get(name, 0)
        assert ring.grid.occupied_segments() == 0


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=10,
))
def test_any_batch_drains_on_grid(pairs):
    grid = RMBLattice((4, 4), lanes=2, config=RMBConfig(
        nodes=4, lanes=2, cycle_period=2.0, check_level="full"))
    for index, (source, destination) in enumerate(pairs):
        submit(grid, index, source, destination, data_flits=index % 5)
    grid.drain()
    assert grid.stats().completed == len(pairs)
    for ring in grid.rings.values():
        assert ring.grid.occupied_segments() == 0


def _scattered_lattice():
    lattice = RMBLattice((4, 4, 4), lanes=2, seed=3)
    for index in range(48):
        source = (index * 29) % 64
        destination = (source + 1 + (index * 17) % 63) % 64
        submit(lattice, index, source, destination, data_flits=index % 7)
    return lattice


def test_mid_run_snapshot_resumes_bit_exact():
    uninterrupted = _scattered_lattice()
    uninterrupted.drain()

    interrupted = _scattered_lattice()
    interrupted.run(40)
    assert interrupted.pending() > 0
    snapshot = save_snapshot_bytes(interrupted)
    resumed, manifest = load_snapshot_bytes(snapshot)
    assert len(manifest["rings"]) == 48
    assert manifest["rings"] == list(uninterrupted.rings)
    resumed.drain()
    assert resumed.sim.now == uninterrupted.sim.now
    assert trail_signature(resumed) == trail_signature(uninterrupted)
