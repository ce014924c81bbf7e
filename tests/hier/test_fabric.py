"""Unit tests for the RingFabric composite layer itself.

Route-plan validation, store-and-forward leg chaining, drain
diagnostics, per-ring breakdowns, and the checkpoint manifest's
member-ring listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.errors import ProtocolError
from repro.hier import HierRMB, Hop, RingFabric, RouteMap, TwoRingRMB


@dataclass(frozen=True)
class StaticRouteMap(RouteMap):
    """Every message takes the same fixed chain (test scaffolding)."""

    hops: Tuple[Hop, ...]

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        return self.hops


def make_fabric(hops, ring_names=("a",), nodes=4, lanes=2):
    fabric = RingFabric(StaticRouteMap(tuple(hops)), name="test-fabric")
    for index, name in enumerate(ring_names):
        fabric.add_ring(RMBRing(
            RMBConfig(nodes=nodes, lanes=lanes), seed=index,
            sim=fabric.sim, name=name))
    return fabric


# ---------------------------------------------------------------------------
# Composition / validation
# ---------------------------------------------------------------------------

def test_add_ring_rejects_foreign_simulator():
    fabric = make_fabric([Hop("a", 0, 2)])
    stray = RMBRing(RMBConfig(nodes=4, lanes=2), name="stray")
    with pytest.raises(ProtocolError, match="not built on the fabric"):
        fabric.add_ring(stray)


def test_add_ring_rejects_duplicate_name():
    fabric = make_fabric([Hop("a", 0, 2)])
    twin = RMBRing(RMBConfig(nodes=4, lanes=2), sim=fabric.sim, name="a")
    with pytest.raises(ProtocolError, match="duplicate ring name"):
        fabric.add_ring(twin)


def test_add_ring_rejects_claimed_completion_hook():
    fabric = make_fabric([Hop("a", 0, 2)])
    ring = RMBRing(RMBConfig(nodes=4, lanes=2), sim=fabric.sim, name="b")
    ring.routing.on_complete = fabric._leg_completed
    with pytest.raises(ProtocolError, match="already has an on_complete"):
        fabric.add_ring(ring)


def test_submit_rejects_duplicate_message_id():
    fabric = make_fabric([Hop("a", 0, 2)])
    fabric.submit(Message(0, 0, 2, data_flits=1))
    with pytest.raises(ProtocolError, match="duplicate fabric message id"):
        fabric.submit(Message(0, 0, 2, data_flits=1))


def test_submit_rejects_unknown_ring_in_plan():
    fabric = make_fabric([Hop("ghost", 0, 2)])
    with pytest.raises(ProtocolError, match="unknown ring 'ghost'"):
        fabric.submit(Message(0, 0, 2, data_flits=1))


def test_submit_rejects_ring_visited_twice():
    fabric = make_fabric([Hop("a", 0, 2), Hop("a", 2, 0)])
    with pytest.raises(ProtocolError, match="visits ring 'a' twice"):
        fabric.submit(Message(0, 0, 2, data_flits=1))


def test_submit_rejects_empty_plan():
    fabric = make_fabric([])
    with pytest.raises(ProtocolError, match="empty chain"):
        fabric.submit(Message(0, 0, 2, data_flits=1))


def test_ring_lookup_names_members_on_miss():
    fabric = make_fabric([Hop("a", 0, 2)])
    assert fabric.ring("a") is fabric.rings["a"]
    assert fabric.member_names() == ("a",)
    with pytest.raises(ProtocolError, match="members: a"):
        fabric.ring("b")


def test_drain_without_rings_is_an_error():
    fabric = RingFabric(StaticRouteMap(()), name="empty")
    with pytest.raises(ProtocolError, match="no member rings"):
        fabric.drain()


# ---------------------------------------------------------------------------
# Leg chaining
# ---------------------------------------------------------------------------

def test_two_leg_journey_chains_with_store_and_forward():
    fabric = make_fabric([Hop("a", 0, 2), Hop("b", 1, 3)],
                         ring_names=("a", "b"))
    fabric.submit(Message(7, 0, 2, data_flits=3))
    fabric.drain()
    journey = fabric.journeys[7]
    assert journey.finished
    assert journey.rings_visited() == ("a", "b")
    first, second = journey.trail
    # Store-and-forward: the second leg is created at the bridge, when
    # the first leg completed — not at the original creation time.
    assert first.completed_at is not None
    assert second.submitted_at == first.completed_at
    assert second.message.created_at == second.submitted_at
    assert second.message.message_id == 7
    # End-to-end latency spans both legs from the original creation.
    assert journey.latency() == journey.completed_at - 0.0
    assert journey.latency() > second.completed_at - second.submitted_at


def test_direct_ring_traffic_is_ignored_by_the_fabric():
    fabric = make_fabric([Hop("a", 0, 2)])
    fabric.rings["a"].submit(Message(99, 1, 3, data_flits=1))
    fabric.drain()
    assert 99 not in fabric.journeys
    assert fabric.rings["a"].routing.records[99].finished


def test_drain_timeout_message_carries_per_ring_census():
    fabric = make_fabric([Hop("a", 0, 2)])
    fabric.submit(Message(0, 0, 2, data_flits=100_000))
    with pytest.raises(ProtocolError, match=r"test-fabric failed to drain"
                                            r".*\(a "):
        fabric.drain(max_ticks=1.0)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def test_fabric_stats_and_census_aggregate_across_rings():
    fabric = make_fabric([Hop("a", 0, 2), Hop("b", 1, 3)],
                         ring_names=("a", "b"))
    fabric.submit(Message(0, 0, 2, data_flits=2))
    fabric.drain()
    stats = fabric.stats()
    assert stats.offered == 2          # leg level: one record per ring
    assert stats.completed == 2
    journey_stats = fabric.journey_run_stats()
    assert journey_stats.offered == 1  # message level: one journey
    assert journey_stats.completed == 1
    assert journey_stats.latency.mean == fabric.journeys[0].latency()
    by_ring = fabric.stats_by_ring()
    assert set(by_ring) == {"a", "b"}
    assert all(s.completed == 1 for s in by_ring.values())
    census = fabric.census_by_ring()
    assert set(census) == {"a", "b"}
    assert fabric.pending() == 0


# ---------------------------------------------------------------------------
# Checkpoint manifests
# ---------------------------------------------------------------------------

def test_snapshot_manifest_lists_member_rings(tmp_path):
    from repro.supervision import describe_snapshot, save_snapshot

    network = TwoRingRMB(RMBConfig(nodes=8, lanes=4), seed=1)
    network.submit(Message(0, 0, 3, data_flits=2))
    path = tmp_path / "two-ring.snap"
    save_snapshot(str(path), network)
    assert describe_snapshot(str(path))["rings"] == ["cw", "ccw"]

    hier = HierRMB(locals=4, nodes_per_local=4, lanes=4, seed=1)
    hier_path = tmp_path / "hier.snap"
    save_snapshot(str(hier_path), hier)
    assert describe_snapshot(str(hier_path))["rings"] == [
        "local0", "local1", "local2", "local3", "global"]


def test_flat_ring_manifest_has_no_rings_key(tmp_path):
    from repro.supervision import describe_snapshot, save_snapshot

    ring = RMBRing(RMBConfig(nodes=8, lanes=4), seed=1)
    path = tmp_path / "flat.snap"
    save_snapshot(str(path), ring)
    assert "rings" not in describe_snapshot(str(path))
