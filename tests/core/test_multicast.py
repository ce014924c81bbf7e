"""Tests for the multicast extension (paper Sections 1/4 future work).

A multicast message lists tap destinations along its clockwise path; each
tap reserves an RX port as the header passes and reads the same flit
stream.  One virtual bus serves the whole receiver set.
"""

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.errors import ConfigurationError


def mc(mid, src, dst, taps, flits=8):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits, extra_destinations=tuple(taps))


class TestMessageValidation:
    def test_duplicate_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            mc(0, 0, 6, [2, 2])

    def test_endpoint_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            mc(0, 0, 6, [0])
        with pytest.raises(ConfigurationError):
            mc(0, 0, 6, [6])

    def test_tap_outside_span_rejected_at_submit(self):
        ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
        with pytest.raises(ConfigurationError):
            ring.submit(mc(0, 0, 4, [6]))  # 6 is past the destination

    def test_fan_out_and_all_destinations(self):
        message = mc(0, 0, 6, [2, 4])
        assert message.fan_out == 3


class TestDelivery:
    def test_single_bus_serves_all_taps(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        record = ring.submit(mc(0, 0, 8, [3, 5], flits=12))
        ring.drain()
        assert record.finished
        assert set(record.tap_delivered_at) == {3, 5}
        # Taps receive strictly before the final destination.
        assert record.tap_delivered_at[3] < record.delivered_at
        assert record.tap_delivered_at[5] < record.delivered_at
        assert record.tap_delivered_at[3] < record.tap_delivered_at[5]
        # Exactly one bus was used for the whole fan-out.
        assert ring.routing.injected == 1

    def test_flit_accounting_counts_each_receiver(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        message = mc(0, 0, 8, [3, 5], flits=12)
        ring.submit(message)
        ring.drain()
        assert ring.routing.flits_delivered == message.total_flits * 3

    def test_all_rx_ports_released_after_completion(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        ring.submit(mc(0, 0, 8, [3, 5]))
        ring.drain()
        assert all(not ring.routing.receiver_busy(node) for node in range(12))
        assert ring.grid.occupied_segments() == 0

    def test_multicast_beats_serial_unicasts(self):
        taps = [2, 4, 6]
        flits = 40

        multicast_ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        multicast_ring.submit(mc(0, 0, 8, taps, flits=flits))
        multicast_time = multicast_ring.drain()

        unicast_ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        for index, destination in enumerate(taps + [8]):
            unicast_ring.submit(Message(index, 0, destination,
                                        data_flits=flits))
        unicast_time = unicast_ring.drain()
        assert multicast_time < unicast_time


class TestRefusal:
    def test_busy_tap_nacks_whole_request(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        # Occupy node 4's receiver with a long unicast first.
        ring.submit(Message(0, 3, 4, data_flits=200))
        ring.run(8)
        record = ring.submit(mc(1, 0, 8, [4], flits=4))
        ring.run(40)
        assert record.nacks >= 1
        ring.drain()
        assert record.finished  # retried and eventually served
        assert set(record.tap_delivered_at) == {4}

    def test_nack_releases_earlier_tap_reservations(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3), seed=0)
        ring.submit(Message(0, 5, 6, data_flits=300))  # blocks node 6
        ring.run(8)
        # Taps at 2 and 4 will be reserved, then the tap at 6 refuses.
        ring.submit(mc(1, 0, 8, [2, 4, 6], flits=4))
        ring.run(60)
        # Nodes 2 and 4 must not be left with dangling reservations.
        assert not ring.routing.receiver_busy(2)
        assert not ring.routing.receiver_busy(4)
        ring.drain()


class TestMultiPort:
    def test_multiple_concurrent_transmissions_per_node(self):
        config = RMBConfig(nodes=12, lanes=4, tx_ports=2)
        ring = RMBRing(config, seed=0)
        ring.submit(Message(0, 0, 6, data_flits=60))
        ring.submit(Message(1, 0, 3, data_flits=60))
        ring.run(20)
        live_sources = [bus.source for bus in ring.buses.values()]
        assert live_sources.count(0) == 2, \
            "two TX ports should carry two concurrent outgoing circuits"
        ring.drain()
        assert ring.stats().completed == 2

    def test_single_port_still_serialises(self):
        ring = RMBRing(RMBConfig(nodes=12, lanes=4, tx_ports=1), seed=0)
        ring.submit(Message(0, 0, 6, data_flits=60))
        ring.submit(Message(1, 0, 3, data_flits=60))
        ring.run(20)
        live_sources = [bus.source for bus in ring.buses.values()]
        assert live_sources.count(0) == 1
        ring.drain()

    def test_multiple_rx_ports_avoid_nacks(self):
        receivers_busy = RMBRing(RMBConfig(nodes=12, lanes=4, rx_ports=1),
                                 seed=0)
        receivers_busy.submit(Message(0, 3, 4, data_flits=120))
        receivers_busy.run(8)
        receivers_busy.submit(Message(1, 0, 4, data_flits=8))
        receivers_busy.drain()
        assert receivers_busy.stats().nacks >= 1

        dual_rx = RMBRing(RMBConfig(nodes=12, lanes=4, rx_ports=2), seed=0)
        dual_rx.submit(Message(0, 3, 4, data_flits=120))
        dual_rx.run(8)
        dual_rx.submit(Message(1, 0, 4, data_flits=8))
        dual_rx.drain()
        assert dual_rx.stats().nacks == 0

    def test_tx_ports_bounded_by_lanes(self):
        with pytest.raises(ConfigurationError):
            RMBConfig(nodes=8, lanes=2, tx_ports=3)

    def test_port_counts_validated(self):
        with pytest.raises(ConfigurationError):
            RMBConfig(nodes=8, lanes=2, tx_ports=0)
        with pytest.raises(ConfigurationError):
            RMBConfig(nodes=8, lanes=2, rx_ports=0)


class TestBroadcastHelper:
    def test_broadcast_reaches_every_node(self):
        # A broadcast is one multicast bus around the whole ring: the
        # final stop is the source's counter-clockwise neighbour, and
        # every node in between taps the stream.
        ring = RMBRing(RMBConfig(nodes=10, lanes=3, cycle_period=2.0),
                       seed=0)
        record = ring.submit(mc(0, 4, 3, (5, 6, 7, 8, 9, 0, 1, 2), flits=12))
        ring.drain()
        assert record.finished
        receivers = set(record.tap_delivered_at) | {record.message.destination}
        assert receivers == set(range(10)) - {4}
