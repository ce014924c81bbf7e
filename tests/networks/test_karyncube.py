"""Tests for the k-ary n-cube (torus) network."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flits import Message
from repro.errors import TopologyError
from repro.networks.karyncube import KAryNCubeNetwork


class TestStructure:
    def test_node_and_channel_counts(self):
        net = KAryNCubeNetwork(radix=4, dimensions=2)
        assert net.nodes == 16
        # 2 dims x 2 directions x 2 VCs per node.
        assert len(net.channels) == 16 * 2 * 2 * 2

    def test_coordinates(self):
        net = KAryNCubeNetwork(radix=4, dimensions=2)
        assert net.coordinate(7, 0) == 3
        assert net.coordinate(7, 1) == 1

    def test_neighbour_wraps(self):
        net = KAryNCubeNetwork(radix=4, dimensions=1)
        assert net._neighbour(3, 0, +1) == 0
        assert net._neighbour(0, 0, -1) == 3

    def test_validation(self):
        with pytest.raises(TopologyError):
            KAryNCubeNetwork(radix=1, dimensions=2)
        with pytest.raises(TopologyError):
            KAryNCubeNetwork(radix=4, dimensions=0)


class TestRouting:
    def test_shortest_direction(self):
        net = KAryNCubeNetwork(radix=8, dimensions=1)
        # 0 -> 3: forward (3 hops) beats backward (5 hops).
        result = net.route_batch([Message(0, 0, 3, data_flits=0)])
        assert result.latencies[0] == pytest.approx(3 + 2)
        # 0 -> 6: backward (2 hops) beats forward (6 hops).
        net2 = KAryNCubeNetwork(radix=8, dimensions=1)
        result = net2.route_batch([Message(0, 0, 6, data_flits=0)])
        assert result.latencies[0] == pytest.approx(2 + 2)

    def test_dimension_order_path_length(self):
        net = KAryNCubeNetwork(radix=4, dimensions=2)
        # (0,0) -> (2,1): 2 hops in dim0 + 1 hop in dim1.
        destination = 2 + 1 * 4
        result = net.route_batch([Message(0, 0, destination, data_flits=0)])
        assert result.latencies[0] == pytest.approx(3 + 2)

    def test_dateline_vc_selection(self):
        net = KAryNCubeNetwork(radix=4, dimensions=1)
        # Travelling +1 from 2 to 1 (wraps through 3 -> 0).
        assert net._virtual_channel(origin=2, here=2, step=+1) == "vc0"
        assert net._virtual_channel(origin=2, here=3, step=+1) == "vc1"
        assert net._virtual_channel(origin=2, here=0, step=+1) == "vc1"
        # Travelling -1 from 1 to 2 (wraps through 0 -> 3).
        assert net._virtual_channel(origin=1, here=1, step=-1) == "vc0"
        assert net._virtual_channel(origin=1, here=0, step=-1) == "vc1"
        assert net._virtual_channel(origin=1, here=3, step=-1) == "vc1"

    def test_full_permutation_delivery(self):
        net = KAryNCubeNetwork(radix=4, dimensions=2)
        messages = [Message(i, i, (i + 7) % 16, data_flits=4)
                    for i in range(16)]
        result = net.route_batch(messages)
        assert result.delivered == 16

    def test_adversarial_ring_traffic_does_not_deadlock(self):
        # Tornado on a single ring: the classic deadlock case without VCs.
        net = KAryNCubeNetwork(radix=8, dimensions=1)
        messages = [Message(i, i, (i + 3) % 8, data_flits=12)
                    for i in range(8)]
        result = net.route_batch(messages, max_ticks=50_000)
        assert result.delivered == 8


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=12,
))
def test_any_batch_drains_on_torus(pairs):
    net = KAryNCubeNetwork(radix=4, dimensions=2)
    messages = [Message(i, s, d, data_flits=i % 7)
                for i, (s, d) in enumerate(pairs)]
    result = net.route_batch(messages, max_ticks=200_000)
    assert result.delivered == len(messages)
    assert all(owner is None for channel in net.channels
               for owner in channel.owners)


class TestThreeDimensions:
    def test_3d_structure(self):
        net = KAryNCubeNetwork(radix=4, dimensions=3)
        assert net.nodes == 64

    def test_3d_path_length(self):
        net = KAryNCubeNetwork(radix=4, dimensions=3)
        # (0,0,0) -> (1,1,1): one hop per dimension.
        destination = 1 + 1 * 4 + 1 * 16
        result = net.route_batch([Message(0, 0, destination, data_flits=0)])
        assert result.latencies[0] == pytest.approx(3 + 2)

    def test_3d_permutation(self):
        net = KAryNCubeNetwork(radix=4, dimensions=3)
        messages = [Message(i, i, (i + 21) % 64, data_flits=2)
                    for i in range(64)]
        result = net.route_batch(messages, max_ticks=200_000)
        assert result.delivered == 64
