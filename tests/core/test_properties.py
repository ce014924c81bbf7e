"""Property-based tests (hypothesis) on core data structures and protocols.

These encode the paper's correctness claims as properties over random
workloads and random protocol schedules:

* compaction preserves connectivity and never raises a hop (Figure 4);
* every quiescent state is bottom-packed per column where connectivity
  allows (Theorem 1's full-utilisation mechanics);
* arbitrary legal move sequences keep Table 1 registers legal;
* the routing engine delivers every message of any random batch with all
  segments freed afterwards.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.compaction import CompactionEngine
from repro.core.flits import MessageRecord
from repro.core.ports import validate_ports
from repro.core.segments import SegmentGrid
from repro.core.virtual_bus import BusPhase, VirtualBus


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def bus_layout(nodes=12, lanes=4):
    """Random non-overlapping straight buses on the grid."""

    @st.composite
    def strategy(draw):
        config = RMBConfig(nodes=nodes, lanes=lanes)
        grid = SegmentGrid(nodes, lanes)
        buses = {}
        count = draw(st.integers(min_value=1, max_value=6))
        for bus_id in range(count):
            source = draw(st.integers(min_value=0, max_value=nodes - 1))
            span = draw(st.integers(min_value=1, max_value=nodes - 1))
            lane = draw(st.integers(min_value=0, max_value=lanes - 1))
            destination = (source + span) % nodes
            segments = [(source + offset) % nodes for offset in range(span)]
            if any(not grid.is_free(segment, lane) for segment in segments):
                continue  # overlapping draw: skip this bus
            message = Message(bus_id, source, destination, data_flits=1)
            bus = VirtualBus(bus_id, message, MessageRecord(message), nodes)
            bus.phase = BusPhase.STREAMING
            for segment in segments:
                grid.claim(segment, lane, bus_id)
                bus.hops.append(lane)
            buses[bus_id] = bus
        return config, grid, buses

    return strategy()


# ---------------------------------------------------------------------------
# Compaction properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(bus_layout())
def test_compaction_preserves_connectivity_and_monotonicity(state):
    config, grid, buses, = state
    engine = CompactionEngine(config, grid, buses)
    previous = {bid: list(bus.hops) for bid, bus in buses.items()}
    for cycle in range(30):
        engine.global_pass(cycle)
        for bus_id, bus in buses.items():
            bus.validate_shape(config.lanes)            # connectivity
            for old, new in zip(previous[bus_id], bus.hops):
                assert new <= old                        # downward only
            previous[bus_id] = list(bus.hops)
        validate_ports(grid, buses)                      # Table 1 legal


@settings(max_examples=40, deadline=None)
@given(bus_layout())
def test_quiescent_state_has_no_legal_moves_and_every_straight_column_packed(state):
    config, grid, buses = state
    engine = CompactionEngine(config, grid, buses)
    engine.quiesce()
    assert engine.fully_packed()
    # Occupied lane sets never contain an avoidable gap below a straight
    # bus: if a column has a free lane L below an occupied lane l whose
    # bus is straight around that hop, a move would be legal -> already
    # excluded by fully_packed.


@settings(max_examples=40, deadline=None)
@given(bus_layout(), st.integers(min_value=0, max_value=2**30))
def test_async_passes_any_order_keep_invariants(state, seed):
    from repro.sim import RandomStream

    config, grid, buses = state
    engine = CompactionEngine(config, grid, buses)
    rng = RandomStream(seed)
    for _ in range(200):
        inc = rng.randint(0, config.nodes - 1)
        cycle = rng.randint(0, 3)
        engine.inc_pass(inc, cycle)
        for bus in buses.values():
            bus.validate_shape(config.lanes)
        validate_ports(grid, buses)


# ---------------------------------------------------------------------------
# End-to-end delivery property
# ---------------------------------------------------------------------------

@st.composite
def random_batches(draw):
    nodes = draw(st.sampled_from([6, 8, 10]))
    lanes = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=10))
    messages = []
    for index in range(count):
        source = draw(st.integers(min_value=0, max_value=nodes - 1))
        offset = draw(st.integers(min_value=1, max_value=nodes - 1))
        flits = draw(st.integers(min_value=0, max_value=12))
        messages.append(Message(index, source, (source + offset) % nodes,
                                data_flits=flits))
    return nodes, lanes, messages


@settings(max_examples=25, deadline=None)
@given(random_batches())
def test_every_random_batch_drains_clean(batch):
    nodes, lanes, messages = batch
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=lanes, cycle_period=2.0),
                   seed=5)
    ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    assert ring.stats().completed == len(messages)
    assert ring.grid.occupied_segments() == 0
    assert not ring.buses


@settings(max_examples=15, deadline=None)
@given(random_batches())
def test_async_mode_matches_sync_delivery_count(batch):
    nodes, lanes, messages = batch
    ring = RMBRing(
        RMBConfig(nodes=nodes, lanes=lanes, synchronous=False,
                  cycle_period=2.0),
        seed=5,
    )
    ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    assert ring.stats().completed == len(messages)
