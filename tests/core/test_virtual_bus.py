"""Unit tests for virtual-bus structure and shape validation."""

import pytest

from repro.core.flits import Message, MessageRecord
from repro.core.virtual_bus import BusPhase, VirtualBus
from repro.errors import ProtocolError


def make_bus(source=0, destination=5, ring=8, hops=None):
    message = Message(0, source, destination, data_flits=4)
    bus = VirtualBus(1, message, MessageRecord(message), ring)
    if hops is not None:
        bus.hops = list(hops)
    return bus


def test_span_and_completion():
    bus = make_bus(source=6, destination=2, ring=8)
    assert bus.span == 4
    assert not bus.complete
    bus.hops = [2, 2, 2, 2]
    assert bus.complete


def test_segment_index_walks_clockwise():
    bus = make_bus(source=6, destination=2, ring=8, hops=[2, 2, 2])
    assert [bus.segment_index(i) for i in range(3)] == [6, 7, 0]


def test_hop_of_segment_inverse():
    bus = make_bus(source=6, destination=2, ring=8, hops=[2, 2, 2])
    assert bus.hop_of_segment(6) == 0
    assert bus.hop_of_segment(0) == 2
    assert bus.hop_of_segment(1) is None  # beyond the head


def test_upstream_downstream_lanes():
    bus = make_bus(hops=[2, 1, 1])
    assert bus.upstream_lane(0) is None
    assert bus.upstream_lane(1) == 2
    assert bus.downstream_lane(1) == 1
    assert bus.downstream_lane(2) is None  # head has no committed next hop


def test_held_hops_respects_release_front():
    bus = make_bus(hops=[2, 2, 2])
    assert list(bus.held_hops()) == [0, 1, 2]
    bus.released_from = 1
    assert list(bus.held_hops()) == [0]


def test_validate_shape_accepts_unit_steps():
    bus = make_bus(hops=[2, 1, 2, 2, 1])
    bus.validate_shape(lanes=3)


def test_validate_shape_rejects_disconnection():
    bus = make_bus(hops=[2, 0])
    with pytest.raises(ProtocolError):
        bus.validate_shape(lanes=3)


def test_validate_shape_rejects_out_of_range_lane():
    bus = make_bus(hops=[3])
    with pytest.raises(ProtocolError):
        bus.validate_shape(lanes=3)


def test_validate_shape_rejects_overshoot():
    bus = make_bus(source=0, destination=2, ring=8, hops=[1, 1, 1])
    with pytest.raises(ProtocolError):
        bus.validate_shape(lanes=3)


def test_alive_phases():
    bus = make_bus(hops=[2])
    assert bus.alive
    bus.phase = BusPhase.TEARDOWN
    assert bus.alive
    bus.phase = BusPhase.DONE
    assert not bus.alive
    bus.phase = BusPhase.REFUSED
    assert not bus.alive


def test_describe_mentions_endpoints_and_lanes():
    bus = make_bus(hops=[2, 1])
    text = bus.describe()
    assert "0->5" in text
    assert "2,1" in text
