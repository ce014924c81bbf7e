"""Snapshots carry primary state only; restores rebuild the rest.

The grid's indexes, dirty set and epochs, the compaction hot map, the
routing engine's pass maps, parked headers, ready nodes, header reach
and compiled arcs, and each virtual bus's endpoints and span are
derived from primary state (DESIGN.md §9 P8, P10).  A snapshot drops
them and the restored owners rebuild them.  These tests take a snapshot in
the middle of a run that has parked headers, a faulty segment and
non-empty pass maps, and check what the pickle holds, what the restore
rebuilds, and that the resumed run ends exactly as the uninterrupted
one does.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.errors import ProtocolError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes
from tests.core.rebuilt import DERIVED_FIELDS, derived, rebuilt

#: At this tick the ring below holds parked headers whose stall ticks
#: are not yet settled, a dead segment, and buses in every pass map.
SNAPSHOT_AT = 90.0


def build_ring() -> RMBRing:
    """Two lanes, 24 messages queued at once and segment (3, 1) dead
    from tick 8 on: headers stall and park."""
    plan = FaultPlan(events=[FaultEvent(
        time=4.0, kind=FaultKind.SEGMENT, action="fail", segment=3, lane=1,
        grace=4.0)])
    config = RMBConfig(nodes=8, lanes=2, retry=RetryPolicy(
        header_timeout=64.0, max_retries=8))
    ring = RMBRing(config, seed=3, fault_plan=plan, trace_kinds=None)
    ring.submit_all(
        Message(message_id=i, source=i % 8, destination=(i + 3 + i % 4) % 8,
                data_flits=4)
        for i in range(24))
    return ring


@pytest.fixture
def mid_run() -> RMBRing:
    ring = build_ring()
    ring.sim.run(until=SNAPSHOT_AT)
    engine = ring.routing
    assert any(wait[4] != engine._passes for wait in engine._parked.values())
    assert ring.grid.faulty_count() == 1
    assert engine._extending and engine._signalling and engine._streaming
    assert engine._ready
    return ring


def owners(ring: RMBRing) -> tuple:
    """The grid, the two engines, then every live bus."""
    return (ring.grid, ring.compaction, ring.routing,
            *ring.routing.buses.values())


def test_pickling_an_unsettled_parked_header_raises(mid_run):
    with pytest.raises(ProtocolError, match="settle_stalls"):
        pickle.dumps(mid_run.routing)
    mid_run.routing.settle_stalls()
    pickle.dumps(mid_run.routing)


def test_snapshot_carries_no_derived_field(mid_run):
    save_snapshot_bytes(mid_run)  # settles the parked headers
    for owner in owners(mid_run):
        state = owner.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        carried = set(DERIVED_FIELDS[type(owner).__name__]) & set(state)
        assert not carried, (type(owner).__name__, carried)


def test_restore_rebuilds_every_derived_field(mid_run):
    restored, _ = load_snapshot_bytes(save_snapshot_bytes(mid_run))
    grid, compaction, engine, *buses = owners(restored)
    live_grid, _, live_engine, *_ = owners(mid_run)
    for name in ("_occupied_count", "_faulty_index", "_faulty_count"):
        assert getattr(grid, name) == getattr(live_grid, name), name
    assert grid._dirty == set(range(grid.nodes))
    assert grid.epochs == [0] * grid.nodes
    assert compaction._hot == {}
    assert list(engine._extending) == list(live_engine._extending)
    assert engine._signalling.keys() == live_engine._signalling.keys()
    assert engine._streaming.keys() == live_engine._streaming.keys()
    assert engine._parked == {}
    assert engine._ready == live_engine._ready
    assert engine._reach == live_engine._reach
    assert buses and all(
        (bus.source, bus.destination, bus.span) == (
            bus.message.source, bus.message.destination,
            bus.message.span(bus.ring_size)) for bus in buses)
    for owner in owners(restored):
        assert derived(owner) == derived(rebuilt(owner))


def test_restored_arcs_hold_the_restored_engine(mid_run):
    """The compiled arcs move buses between the restored engine's own
    pass maps and run its own handlers, not the original's."""
    restored, _ = load_snapshot_bytes(save_snapshot_bytes(mid_run))
    engine, live_engine = restored.routing, mid_run.routing
    own = (engine._extending, engine._signalling, engine._streaming)
    assert engine._arcs.keys() == live_engine._arcs.keys()
    for key, (target, phase, left, entered, effects) in engine._arcs.items():
        live = live_engine._arcs[key]
        assert (target, phase) == live[:2]
        for held, live_held in ((left, live[2]), (entered, live[3])):
            assert (held is None) == (live_held is None)
            assert held is None or any(held is mine for mine in own)
        assert [effect for _, effect in effects] == \
            [effect for _, effect in live[4]]
        assert all(handler.__self__ is engine for handler, _ in effects)


def test_resumed_run_matches_the_uninterrupted_one(mid_run):
    """Dropped parked headers are evaluated in full at the next pass and
    park again; an all-dirty grid re-examines every column once.  Both
    only decide when work runs (P2, P4, P5), so nothing observable
    changes."""
    restored, _ = load_snapshot_bytes(save_snapshot_bytes(mid_run))
    reference = build_ring()
    for ring in (restored, reference):
        ring.drain()
    assert restored.sim.now == reference.sim.now
    assert json.dumps(restored.stats().summary(), sort_keys=True) == \
        json.dumps(reference.stats().summary(), sort_keys=True)
    assert reference.trace.entries
    assert restored.trace.entries == reference.trace.entries
    assert restored.grid.state_signature() == \
        reference.grid.state_signature()
    assert {mid: record.head_stall_ticks
            for mid, record in restored.routing.records.items()} == \
        {mid: record.head_stall_ticks
         for mid, record in reference.routing.records.items()}
