"""Unit tests for the RingFabric composite layer itself.

Member building, route-plan validation, store-and-forward leg chaining,
drain diagnostics, message-level stats with per-ring breakdowns, and the
checkpoint manifest's member-ring listing.
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
    config = RMBConfig(nodes=nodes, lanes=lanes)
    return RingFabric(
        StaticRouteMap(tuple(hops)),
        [(name, config, index) for index, name in enumerate(ring_names)],
        name="test-fabric")


# ---------------------------------------------------------------------------
# Composition / validation
# ---------------------------------------------------------------------------

def test_members_are_built_on_the_fabric_simulator():
    fabric = make_fabric([Hop("a", 0, 2)], ring_names=("a", "b"))
    assert tuple(fabric.rings) == ("a", "b")
    for index, ring in enumerate(fabric.rings.values()):
        assert ring.sim is fabric.sim
        assert ring.routing.on_complete == fabric._leg_completed
        assert ring.seeds.root_seed == index


def test_duplicate_member_name_is_refused():
    with pytest.raises(ProtocolError, match="duplicate ring name"):
        make_fabric([Hop("a", 0, 2)], ring_names=("a", "a"))


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
    with pytest.raises(ProtocolError, match="members: a"):
        fabric.ring("b")


def test_drain_without_rings_is_an_error():
    fabric = RingFabric(StaticRouteMap(()), (), name="empty")
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
    assert [hop.ring for hop in journey.trail] == ["a", "b"]
    first, second = journey.trail
    # Store-and-forward: the second leg is created at the bridge, when
    # the first leg completed — not at the original creation time.
    assert first.completed_at is not None
    assert second.submitted_at == first.completed_at
    assert second.message.created_at == second.submitted_at
    assert second.message.message_id == 7
    # End-to-end latency spans both legs from the original creation.
    assert journey.latency() == second.record.delivered_at - 0.0
    assert journey.latency() > second.record.latency()


def test_journey_latency_stops_at_final_delivery():
    # Request to final delivery, as on a flat ring: the final leg's
    # teardown (Fack back at its source) comes later and is not counted.
    fabric = make_fabric([Hop("a", 0, 2), Hop("b", 1, 3)],
                         ring_names=("a", "b"))
    fabric.submit(Message(3, 0, 2, data_flits=4, created_at=0.0))
    fabric.drain()
    journey = fabric.journeys[3]
    final = journey.trail[-1].record
    assert journey.latency() == final.delivered_at - journey.message.created_at
    assert final.delivered_at < journey.completed_at


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
    assert stats.offered == 1          # message level: one journey
    assert stats.completed == 1
    assert stats.latencies == [fabric.journeys[0].latency()]
    assert stats.flits_delivered == fabric.journeys[0].message.total_flits
    by_ring = fabric.stats_by_ring()   # leg level: one record per ring
    assert set(by_ring) == {"a", "b"}
    assert all(s.completed == 1 for s in by_ring.values())
    assert stats.nacks == sum(s.nacks for s in by_ring.values())
    assert stats.stalls.total == sum(s.stalls.total for s in by_ring.values())
    assert fabric.lifecycle_census() == {}
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
