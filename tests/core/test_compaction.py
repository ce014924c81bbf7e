"""Unit tests for the compaction engine (Figures 2/3/5/7/8, D1-D3)."""

import pytest

from repro.core.compaction import CompactionEngine
from repro.core.config import RMBConfig
from repro.core.flits import Message, MessageRecord
from repro.core.segments import SegmentGrid
from repro.core.status import ALL_CONDITIONS
from repro.core.virtual_bus import BusPhase, VirtualBus
from repro.errors import ProtocolError


def build(nodes=8, lanes=4, compaction_enabled=True):
    config = RMBConfig(nodes=nodes, lanes=lanes,
                       compaction_enabled=compaction_enabled)
    grid = SegmentGrid(nodes, lanes)
    buses = {}
    engine = CompactionEngine(config, grid, buses)
    return config, grid, buses, engine


def add_bus(grid, buses, bus_id, source, destination, lanes, ring=8,
            phase=BusPhase.STREAMING):
    message = Message(bus_id, source, destination, data_flits=4)
    bus = VirtualBus(bus_id, message, MessageRecord(message), ring)
    bus.phase = phase
    for offset, lane in enumerate(lanes):
        grid.claim((source + offset) % ring, lane, bus_id)
        bus.hops.append(lane)
    buses[bus_id] = bus
    return bus


def quiesce(engine, start_cycle=0, limit=100):
    cycle = start_cycle
    idle = 0
    while idle < 2:
        idle = idle + 1 if engine.global_pass(cycle) == 0 else 0
        cycle += 1
        assert cycle < limit, "compaction failed to quiesce"
    return cycle


class TestSingleBusCompaction:
    def test_straight_bus_drops_one_lane_in_two_cycles(self):
        # Figure 5 exactly: all hops at the top lane, lane below free.
        _, grid, buses, engine = build(lanes=3)
        bus = add_bus(grid, buses, 0, source=0, destination=5, lanes=[2] * 5)
        moved_first = engine.global_pass(0)
        assert moved_first > 0
        # Intermediate state: a legal +/-1 zigzag between lanes 1 and 2.
        assert set(bus.hops) == {1, 2}
        bus.validate_shape(3)
        engine.global_pass(1)
        assert bus.hops == [1] * 5, "whole bus should sit one lane lower"

    def test_bus_reaches_bottom_lane_eventually(self):
        _, grid, buses, engine = build(lanes=4)
        bus = add_bus(grid, buses, 0, source=2, destination=7, lanes=[3] * 5)
        quiesce(engine)
        assert bus.hops == [0] * 5

    def test_columns_packed_after_quiescence(self):
        _, grid, buses, engine = build(lanes=4)
        add_bus(grid, buses, 0, source=0, destination=4, lanes=[3] * 4)
        add_bus(grid, buses, 1, source=1, destination=5, lanes=[2] * 4)
        quiesce(engine)
        for segment in range(8):
            assert grid.is_packed(segment), f"column {segment} not packed"

    def test_compaction_disabled_is_inert(self):
        _, grid, buses, engine = build(compaction_enabled=False)
        bus = add_bus(grid, buses, 0, source=0, destination=4, lanes=[3] * 4)
        for cycle in range(10):
            assert engine.global_pass(cycle) == 0
        assert bus.hops == [3] * 4


class TestMoveLegality:
    def test_blocked_by_occupied_lane_below(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=3, lanes=[1] * 3)
        bus_above = add_bus(grid, buses, 1, source=0, destination=3,
                            lanes=[2] * 3)
        add_bus(grid, buses, 2, source=0, destination=3, lanes=[0] * 3)
        quiesce(engine)
        assert bus_above.hops == [2] * 3, "no free lane: nothing may move"

    def test_lane_zero_never_moves(self):
        _, grid, buses, engine = build(lanes=2)
        bus = add_bus(grid, buses, 0, source=0, destination=3, lanes=[0] * 3)
        quiesce(engine)
        assert bus.hops == [0] * 3

    def test_figure7_upstream_constraint(self):
        # Hop 1 at lane 3 whose upstream hop is at lane 1: the upstream
        # enters the INC two lanes away, so hop 1 must not move even if
        # lane 2 is free.  (Construct via a legal +/-1 chain: 1,2,3.)
        _, grid, buses, engine = build(lanes=4)
        bus = add_bus(grid, buses, 0, source=0, destination=4,
                      lanes=[1, 2, 3, 3])
        # Hop 2 (lane 3) with upstream at lane 2: within Figure 7 -> legal.
        assert engine.move_legal(2, 3)
        # Make the upstream hop lane 1 -> moving hop 2 from lane 3 would
        # disconnect: engine must refuse.
        bus.hops = [1, 1, 3, 3]
        grid.release(1, 2, 0)
        grid.claim(1, 1, 0)
        assert not engine.move_legal(2, 3)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_bus_off_its_grid_cell_is_an_error(self, incremental):
        _, grid, buses, engine = build(lanes=3)
        engine.incremental = incremental
        bus = add_bus(grid, buses, 0, source=0, destination=3, lanes=[2] * 3)
        bus.hops[1] = 1  # the grid still has hop 1 on (1, 2)
        with pytest.raises(ProtocolError, match="inconsistency"):
            engine.global_pass(1)

    def test_segment_state_classification(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=2, lanes=[2, 2])
        assert engine.segment_state(0, 1) == "free"
        assert engine.segment_state(0, 2) == "switchable-down"
        blocker = add_bus(grid, buses, 1, source=0, destination=2,
                          lanes=[1, 1])
        assert engine.segment_state(0, 2) == "in-use"
        assert engine.segment_state(0, 1) == "switchable-down"
        del blocker


class TestParitySchedule:
    def test_considered_matches_paper_rule(self):
        # Even INC, even lane, even cycle -> considered.
        assert CompactionEngine.considered(0, 2, 0)
        # Even INC, odd lane, even cycle -> not considered.
        assert not CompactionEngine.considered(0, 1, 0)
        # Even INC, odd lane, odd cycle -> considered.
        assert CompactionEngine.considered(0, 1, 1)
        # Odd INC, even lane, odd cycle -> considered.
        assert CompactionEngine.considered(1, 2, 1)
        # Odd INC, odd lane, even cycle -> considered.
        assert CompactionEngine.considered(1, 1, 0)

    def test_only_considered_segments_move(self):
        _, grid, buses, engine = build(lanes=3)
        bus = add_bus(grid, buses, 0, source=0, destination=4, lanes=[2] * 4)
        engine.global_pass(0)
        for offset, lane in enumerate(bus.hops):
            segment = offset  # source is 0
            if lane == 1:  # moved this cycle
                assert (segment + 2 + 0) % 2 == 0


class TestConditionAccounting:
    def test_all_four_figure7_conditions_occur(self):
        _, grid, buses, engine = build(nodes=12, lanes=4, )
        # A long bus repeatedly compacting generates every condition.
        add_bus(grid, buses, 0, source=0, destination=9, lanes=[3] * 9,
                ring=12)
        add_bus(grid, buses, 1, source=9, destination=2, lanes=[2] * 5,
                ring=12)
        quiesce(engine)
        seen = set(engine.stats.condition_counts)
        assert seen <= set(ALL_CONDITIONS)
        assert "upstream-straight/downstream-straight" in seen

    def test_move_counter_increments(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=3, lanes=[2] * 3)
        quiesce(engine)
        assert engine.stats.moves == 6  # 3 hops x 2 lanes down


class TestAsynchronousPass:
    def test_inc_pass_moves_only_own_segments(self):
        _, grid, buses, engine = build(lanes=3)
        bus = add_bus(grid, buses, 0, source=0, destination=4, lanes=[2] * 4)
        # INC 1 in a cycle where its lane-2 segment parity matches:
        # (1 + 2 + c) even -> c odd.
        moved = engine.inc_pass(1, 1)
        assert moved == 1
        assert bus.hops == [2, 1, 2, 2]

    def test_inc_pass_respects_parity(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=4, lanes=[2] * 4)
        assert engine.inc_pass(1, 0) == 0  # (1+2+0) odd: not considered

    def test_async_and_sync_reach_same_fixed_point(self):
        _, grid_a, buses_a, engine_a = build(lanes=4)
        add_bus(grid_a, buses_a, 0, source=0, destination=5, lanes=[3] * 5)
        add_bus(grid_a, buses_a, 1, source=3, destination=7, lanes=[2] * 4)
        quiesce(engine_a)

        _, grid_b, buses_b, engine_b = build(lanes=4)
        add_bus(grid_b, buses_b, 0, source=0, destination=5, lanes=[3] * 5)
        add_bus(grid_b, buses_b, 1, source=3, destination=7, lanes=[2] * 4)
        for cycle in range(40):
            for inc in range(8):
                engine_b.inc_pass(inc, cycle)
        assert buses_a[0].hops == buses_b[0].hops
        assert buses_a[1].hops == buses_b[1].hops


class TestQuiesceHelper:
    def test_quiesce_returns_cycles_and_stops(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=3, lanes=[2] * 3)
        cycles = engine.quiesce()
        assert cycles >= 4
        assert engine.fully_packed()

    @pytest.mark.parametrize("max_cycles", [1, 4, 7])
    def test_quiesce_runs_max_cycles_passes_then_raises(self, max_cycles):
        _, grid, buses, engine = build(lanes=4)
        add_bus(grid, buses, 0, source=0, destination=5, lanes=[3] * 5)
        with pytest.raises(ProtocolError, match="failed to quiesce"):
            engine.quiesce(max_cycles=max_cycles)
        assert engine.stats.cycles_run == max_cycles

    def test_quiesce_may_use_all_of_max_cycles(self):
        # The straight 5-hop bus settles in 8 passes, the last two idle,
        # under the default limit and under a limit of exactly 8.
        for limit in (None, 8):
            _, grid, buses, engine = build(lanes=4)
            bus = add_bus(grid, buses, 0, source=0, destination=5,
                          lanes=[3] * 5)
            cycles = engine.quiesce() if limit is None else \
                engine.quiesce(max_cycles=limit)
            assert cycles == 8
            assert bus.hops == [0] * 5

    def test_fully_packed_false_when_moves_remain(self):
        _, grid, buses, engine = build(lanes=3)
        add_bus(grid, buses, 0, source=0, destination=3, lanes=[2] * 3)
        assert not engine.fully_packed()
