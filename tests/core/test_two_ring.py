"""Tests for the bidirectional two-ring RMB (Section 2.1 remark, E18)."""

import pytest

from repro.core import Message, RMBConfig
from repro.hier import TwoRingRMB
from repro.errors import ProtocolError


def ring_of(network, message_id):
    (leg,) = network.journeys[message_id].trail
    return leg.ring


def test_short_way_routing():
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4))
    # Clockwise span 3 -> clockwise ring.
    network.submit(Message(0, 0, 3, data_flits=2))
    assert ring_of(network, 0) == "cw"
    # Clockwise span 13 (> 8) -> counter-clockwise ring.
    network.submit(Message(1, 0, 13, data_flits=2))
    assert ring_of(network, 1) == "ccw"


def test_tie_goes_clockwise():
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4))
    network.submit(Message(0, 0, 8, data_flits=2))  # span 8 both ways
    assert ring_of(network, 0) == "cw"


def test_mirror_preserves_span():
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4))
    network.submit(Message(0, 2, 9, data_flits=2))   # cw span 7
    network.submit(Message(1, 9, 2, data_flits=2))   # ccw span 7
    mirrored = network.rings["ccw"].routing.records[1].message
    assert (mirrored.destination - mirrored.source) % 16 == 7


def test_all_messages_complete_on_both_rings():
    network = TwoRingRMB(RMBConfig(nodes=12, lanes=4))
    for index in range(12):
        offset = 5 if index % 2 == 0 else -5  # mix of short cw and ccw
        network.submit(Message(index, index, (index + offset) % 12,
                               data_flits=6))
    network.drain()
    stats = network.stats()
    assert stats.completed == 12
    assert network.rings["cw"].routing.completed > 0
    assert network.rings["ccw"].routing.completed > 0


def test_lane_split_default_is_half():
    network = TwoRingRMB(RMBConfig(nodes=8, lanes=6))
    assert network.rings["cw"].config.lanes == 3
    assert network.rings["ccw"].config.lanes == 3


def test_single_lane_config_rejected():
    with pytest.raises(ProtocolError):
        TwoRingRMB(RMBConfig(nodes=8, lanes=1))
    # An odd k is not silently rounded down to 2 + 2 lanes.
    with pytest.raises(ProtocolError, match="even count .* got 5"):
        TwoRingRMB(RMBConfig(nodes=8, lanes=5))


def test_two_ring_beats_single_ring_on_long_messages():
    # Long clockwise spans become short counter-clockwise spans; with the
    # same total lane budget the two-ring layout must win on makespan.
    from repro.core import RMBRing

    messages = [Message(i, i, (i - 3) % 16, data_flits=8) for i in range(16)]

    single = RMBRing(RMBConfig(nodes=16, lanes=4), seed=0)
    single.submit_all([Message(m.message_id, m.source, m.destination,
                               data_flits=m.data_flits) for m in messages])
    single_time = single.drain()

    double = TwoRingRMB(RMBConfig(nodes=16, lanes=4))  # 2 lanes each way
    double.submit_all(messages)
    double_time = double.drain()
    assert double_time < single_time


def test_multicast_taps_are_mirrored_on_ccw_ring():
    # A multicast whose short direction is counter-clockwise must carry
    # its taps through the same index mirroring as its endpoints:
    # 2 -> 15 has clockwise span 13 (> 8), so it rides the ccw ring with
    # span 3, and the tap at node 0 lies on that counter-clockwise path.
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4))
    network.submit(Message(2, 2, 15, data_flits=8,
                           extra_destinations=(0,)))
    assert ring_of(network, 2) == "ccw"
    network.drain()
    mirrored = network.rings["ccw"].routing.records[2]
    assert mirrored.finished
    # The tap delivered (recorded under its mirrored ring index).
    assert len(mirrored.tap_delivered_at) == 1
    mirror = lambda node: (16 - node) % 16
    assert set(mirrored.tap_delivered_at) == {mirror(0)}


def test_journey_latency_is_the_leg_latency():
    # Every two-ring journey is one leg, so the journey and its leg
    # record agree on request-to-delivery latency.
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4), seed=4)
    for index in range(10):
        network.submit(Message(index, index, (index + 3 + 4 * (index % 3)) % 16,
                               data_flits=6))
    network.drain()
    for journey in network.journeys.values():
        (leg,) = journey.trail
        assert journey.latency() == leg.record.latency()
