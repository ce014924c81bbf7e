"""Unit tests for the generic wormhole engine."""

import pytest

from repro.core.flits import Message
from repro.errors import ProtocolError, RoutingError, TopologyError
from repro.networks.wormhole import Channel, WormholeEngine


def line_network(length=4, multiplicity=1):
    """Nodes 0..length-1 in a line, forward channels only."""
    channels = [
        Channel(i, i + 1, multiplicity=multiplicity)
        for i in range(length - 1)
    ]

    def route(engine, message, node):
        return engine.channel_between(node, node + 1).index

    return WormholeEngine(length, channels, route, name="line")


def test_single_message_timing():
    net = line_network(4)
    result = net.route_batch([Message(0, 0, 3, data_flits=4)])
    assert result.delivered == 1
    # 3 channels to acquire + 6 flits pipelined: latency = hops + flits.
    assert result.latencies[0] == pytest.approx(3 + 6)


def test_channels_released_after_delivery():
    net = line_network(4)
    net.route_batch([Message(0, 0, 3, data_flits=4)])
    assert all(owner is None for channel in net.channels
               for owner in channel.owners)
    assert all(count == 0 for channel in net.channels
               for count in channel.buffered)


def test_second_message_waits_for_channel():
    net = line_network(3)
    result = net.route_batch([
        Message(0, 0, 2, data_flits=10),
        Message(1, 1, 2, data_flits=2),
    ])
    assert result.delivered == 2
    # Message 1 shares channel 1->2 and must wait for the long worm.
    assert result.latencies[1] > 4


def test_multiplicity_allows_parallel_worms():
    wide = line_network(3, multiplicity=2)
    result_wide = wide.route_batch([
        Message(0, 0, 2, data_flits=10),
        Message(1, 1, 2, data_flits=10),
    ])
    narrow = line_network(3, multiplicity=1)
    result_narrow = narrow.route_batch([
        Message(0, 0, 2, data_flits=10),
        Message(1, 1, 2, data_flits=10),
    ])
    assert result_wide.makespan < result_narrow.makespan


def test_injection_limit_serialises_per_source():
    net = line_network(4)
    result = net.route_batch([
        Message(0, 0, 3, data_flits=2),
        Message(1, 0, 3, data_flits=2),
    ])
    assert result.delivered == 2
    assert result.latencies[1] >= result.latencies[0]


def test_bad_router_return_detected():
    channels = [Channel(0, 1), Channel(1, 2)]

    def broken_route(engine, message, node):
        return 1  # always channel 1->2, wrong at node 0

    net = WormholeEngine(3, channels, broken_route)
    with pytest.raises(RoutingError):
        net.route_batch([Message(0, 0, 2, data_flits=1)])


def test_destination_out_of_range_rejected():
    net = line_network(3)
    with pytest.raises(RoutingError):
        net.route_batch([Message(0, 0, 7, data_flits=1)])


def test_undrainable_batch_raises():
    # Two-node line, but route to an unreachable node by breaking topology:
    channels = [Channel(0, 1)]

    def route(engine, message, node):
        return engine.channel_between(node, node + 1).index

    net = WormholeEngine(3, channels, route)
    with pytest.raises((ProtocolError, TopologyError)):
        net.route_batch([Message(0, 0, 2, data_flits=1)], max_ticks=50)


def test_channel_between_label_filter():
    channels = [Channel(0, 1, label="a"), Channel(0, 1, label="b")]
    net = WormholeEngine(2, channels, lambda e, m, n: 0)
    assert net.channel_between(0, 1, "b").label == "b"
    with pytest.raises(TopologyError):
        net.channel_between(0, 1, "missing")


def test_link_count_sums_multiplicity():
    net = line_network(4, multiplicity=3)
    assert net.link_count() == 9


def test_channel_validation():
    with pytest.raises(TopologyError):
        Channel(0, 1, multiplicity=0)


def test_flit_conservation_across_contention():
    net = line_network(5)
    messages = [Message(i, 0 if i % 2 == 0 else 1, 4, data_flits=3 + i)
                for i in range(4)]
    result = net.route_batch(messages)
    assert result.delivered == 4
    assert all(owner is None for channel in net.channels
               for owner in channel.owners)
