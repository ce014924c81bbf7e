"""Property test: the optimised hot path is bit-identical to the reference.

The performance work (ISSUE PR 3) must be *behaviour-preserving*: the
incremental compaction candidate search, the monitor sampling levels and
the kernel fast lane may only change how fast a run executes, never what
it computes.  This test pits the optimised configuration against the
reference slow path — exhaustive compaction scans
(``engine.incremental = False``) with full invariant checking — across
random seeds and fault plans, and requires byte-identical observables:
the stats summary serialised as JSON, the protocol trace, the grid
signature, every message's lifecycle timestamps, and the checkpoint
manifest of a mid-run snapshot.

Parked headers (DESIGN.md P4) skip the full evaluation while the epochs
of their head and next columns are unchanged; the soundness tests below
run that full evaluation anyway before every header pass and require it
to agree that each such header stalls.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.core.routing import RoutingEngine
from repro.core.status import PortHealth
from repro.core.virtual_bus import BusPhase
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hier import HierRMB
from repro.sim import RandomStream
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes
from repro.traffic import bernoulli_schedule, replay_on_fabric

NODES = 8
LANES = 3
HORIZON = 90.0


@st.composite
def fault_plans(draw):
    """None, or 1-2 segment failures (each optionally repaired)."""
    if not draw(st.booleans()):
        return None
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        segment = draw(st.integers(min_value=0, max_value=NODES - 1))
        lane = draw(st.integers(min_value=0, max_value=LANES - 1))
        fail_at = float(draw(st.integers(min_value=5, max_value=60)))
        events.append(FaultEvent(time=fail_at, kind=FaultKind.SEGMENT,
                                 action="fail", segment=segment, lane=lane,
                                 grace=4.0))
        if draw(st.booleans()):
            events.append(FaultEvent(time=fail_at + 20.0,
                                     kind=FaultKind.SEGMENT,
                                     action="repair", segment=segment,
                                     lane=lane))
    return FaultPlan(events=events)


def build_ring(seed: int, plan: FaultPlan | None, *,
               incremental: bool, check_level: str,
               synchronous: bool = True, messages: int = 10,
               **overrides: bool) -> RMBRing:
    config = RMBConfig(nodes=NODES, lanes=LANES,
                       check_level=check_level, synchronous=synchronous,
                       retry=RetryPolicy(
                           jitter=0.25,
                           max_retries=8 if plan is not None else None),
                       **overrides)
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan)
    ring.compaction.incremental = incremental
    ring.submit_all(
        Message(message_id=i, source=(i + seed) % NODES,
                destination=(i + seed + 2 + i % 3) % NODES,
                data_flits=2 + (i % 5))
        for i in range(messages)
    )
    return ring


def observables(ring: RMBRing) -> tuple:
    return (
        ring.sim.now,
        json.dumps(ring.stats().summary(), sort_keys=True),
        ring.trace.entries,
        ring.grid.state_signature(),
        {mid: (record.injected_at, record.established_at,
               record.delivered_at, record.completed_at, record.retries)
         for mid, record in ring.routing.records.items()},
        ring.compaction.stats.moves,
        ring.compaction.stats.evacuations,
    )


def run_and_observe(seed: int, plan: FaultPlan | None, *,
                    incremental: bool, check_level: str,
                    synchronous: bool = True,
                    snapshot_at: float) -> tuple[tuple, dict]:
    """Run to the horizon, snapshotting mid-way; return observables and
    the snapshot manifest (with the restored copy finishing the run to
    prove the snapshot captured an equivalent state)."""
    ring = build_ring(seed, plan, incremental=incremental,
                      check_level=check_level, synchronous=synchronous)
    ring.sim.run(until=snapshot_at)
    snapshot = save_snapshot_bytes(ring)
    restored, manifest = load_snapshot_bytes(snapshot)
    restored.sim.run(until=HORIZON)
    restored.drain()
    manifest.pop("meta", None)
    return observables(restored), manifest


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_compaction_matches_reference(seed, plan, snapshot_at):
    """Optimised candidate search == exhaustive scan, bit for bit."""
    fast, fast_manifest = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        snapshot_at=float(snapshot_at))
    slow, slow_manifest = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == slow
    assert fast_manifest == slow_manifest


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_inc_pass_matches_reference(seed, plan, snapshot_at):
    """Asynchronous mode: the per-INC hot-map gate changes nothing."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    slow, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    assert fast == slow


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       level=st.sampled_from(["sampled", "off"]),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_check_level_is_read_only(seed, plan, level, snapshot_at):
    """The invariant monitor frequency never changes simulation results."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level=level,
        snapshot_at=float(snapshot_at))
    reference, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == reference


def check_parked_headers(engine: RoutingEngine) -> int:
    """Re-run the full evaluation for every parked header whose recorded
    epochs still match; it must agree that the header stalls.  Returns
    how many parked headers were checked."""
    extending = [bus_id for bus_id, bus in engine.buses.items()
                 if bus.phase is BusPhase.EXTENDING]
    assert list(engine._extending) == extending
    grid = engine.grid
    checked = 0
    for bus_id, (head, head_epoch, ahead, ahead_epoch) in \
            engine._parked.items():
        bus = engine._extending[bus_id]
        assert head == bus.segment_index(len(bus.hops) - 1)
        assert ahead == bus.segment_index(len(bus.hops))
        if (grid.epochs[head], grid.epochs[ahead]) != \
                (head_epoch, ahead_epoch):
            continue
        assert any(grid.health(ahead, lane) is PortHealth.OK
                   for lane in range(grid.lanes)), bus.describe()
        assert engine._pick_extension_lane(ahead, bus.head_lane()) is None, \
            bus.describe()
        checked += 1
    return checked


@contextmanager
def checking_parked_headers() -> Iterator[list[int]]:
    """Check every parked header before each header pass; yields a
    one-element list counting the headers checked."""
    count = [0]
    advance = RoutingEngine._advance_headers

    def checked(engine: RoutingEngine) -> None:
        count[0] += check_parked_headers(engine)
        advance(engine)

    with mock.patch.object(RoutingEngine, "_advance_headers", checked):
        yield count


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       synchronous=st.booleans(),
       extend_up=st.booleans(),
       compact_head=st.booleans())
def test_parked_headers_really_stall(seed, plan, synchronous, extend_up,
                                     compact_head):
    """A header is only ever parked on columns that leave it stuck."""
    with checking_parked_headers():
        ring = build_ring(seed, plan, incremental=True, check_level="off",
                          synchronous=synchronous, messages=32,
                          extend_up=extend_up,
                          compact_head_while_extending=compact_head)
        ring.sim.run(until=HORIZON)
        ring.drain()


def test_parked_headers_really_stall_on_a_fabric():
    """The same check on every ring of a loaded HierRMB fabric."""
    with checking_parked_headers() as count:
        fabric = HierRMB(locals=4, nodes_per_local=4, lanes=3, seed=5,
                         check_invariants=False, probe_period=16.0)
        replay_on_fabric(fabric, bernoulli_schedule(
            16, 120, 0.08, 4, RandomStream(5, name="parking")))
        fabric.run(120)
        fabric.drain()
    assert count[0] > 0
