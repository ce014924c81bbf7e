"""Tests for the multibus baseline, crossbar reference, and registry."""

import pytest

from repro.core.flits import Message
from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.networks import (
    CrossbarNetwork,
    MultiBusNetwork,
    PAPER_NETWORKS,
    EXTRA_NETWORKS,
    build_network,
    make_batch,
    permutation_pairs,
)
from repro.traffic import make_pattern, pattern_batch


class TestMultiBus:
    def test_k_buses_carry_k_messages_concurrently(self):
        net = MultiBusNetwork(nodes=8, buses=2)
        result = net.route_batch([
            Message(0, 0, 4, data_flits=8),
            Message(1, 1, 5, data_flits=8),
            Message(2, 2, 6, data_flits=8),
        ])
        # Each transfer takes 10 + 1 ticks; two run in parallel, the third
        # waits for a bus.
        assert result.delivered == 3
        assert result.latencies[0] == result.latencies[1]
        assert result.latencies[2] > result.latencies[0]

    def test_span_does_not_matter_on_a_global_bus(self):
        net = MultiBusNetwork(nodes=16, buses=1)
        short = net.route_batch([Message(0, 0, 1, data_flits=4)])
        far = MultiBusNetwork(nodes=16, buses=1).route_batch(
            [Message(0, 0, 15, data_flits=4)]
        )
        assert short.latencies == far.latencies

    def test_fifo_arbitration_head_of_line(self):
        # The queue head waits for its busy receiver; later requests to
        # free receivers wait behind it (single central queue).
        net = MultiBusNetwork(nodes=8, buses=2)
        result = net.route_batch([
            Message(0, 0, 4, data_flits=50),
            Message(1, 1, 4, data_flits=2),   # same receiver: blocked
            Message(2, 2, 6, data_flits=2),   # behind the blocked head
        ])
        assert result.delivered == 3
        assert result.latencies[1] > result.latencies[0]
        assert result.latencies[2] >= result.latencies[0]

    def test_validation(self):
        with pytest.raises(TopologyError):
            MultiBusNetwork(8, buses=0)

    def test_drain_guard(self):
        net = MultiBusNetwork(8, buses=1)
        with pytest.raises(ProtocolError):
            net.route_batch([Message(0, 0, 1, data_flits=10_000)],
                            max_ticks=10)


class TestCrossbar:
    def test_parallel_sources_unblocked(self):
        net = CrossbarNetwork(8)
        result = net.route_batch([
            Message(index, index, (index + 1) % 8, data_flits=6)
            for index in range(8)
        ])
        # A permutation suffers zero contention on a crossbar.
        assert len(set(result.latencies)) == 1

    def test_output_port_contention(self):
        net = CrossbarNetwork(8)
        result = net.route_batch([
            Message(0, 0, 5, data_flits=6),
            Message(1, 1, 5, data_flits=6),
        ])
        # The second transfer starts when the first releases the port.
        assert result.latencies[1] == pytest.approx(result.latencies[0] * 2)

    def test_source_serialisation(self):
        net = CrossbarNetwork(8)
        result = net.route_batch([
            Message(0, 0, 3, data_flits=6),
            Message(1, 0, 5, data_flits=6),
        ])
        assert result.latencies[1] > result.latencies[0]


class TestRegistry:
    @pytest.mark.parametrize("name", PAPER_NETWORKS + EXTRA_NETWORKS)
    def test_every_registered_network_routes_a_permutation(self, name):
        pairs = permutation_pairs([(i + 5) % 16 for i in range(16)])
        net = build_network(name, nodes=16, k=4)
        result = net.route_batch(make_batch(pairs, data_flits=4))
        assert result.delivered == 16
        assert result.makespan > 0

    @pytest.mark.parametrize("name", ["rmb", "rmb-2ring", "hier:4x4"])
    def test_raced_rmb_networks_record_no_trace(self, name):
        # The arena reads only message statistics, so no member ring
        # records trace rows that nothing reads.
        network = build_network(name, 16, 4).factory()
        pattern = make_pattern("transpose", 16, k=4, seed=0)
        network.submit_all(pattern_batch(pattern, data_flits=16).messages())
        network.drain()
        assert network.stats().completed > 0
        rings = getattr(network, "rings", {name: network})
        assert {ring: len(rings[ring].trace) for ring in rings} == \
            dict.fromkeys(rings, 0)

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigurationError):
            build_network("token-ring", nodes=16, k=4)

    @pytest.mark.parametrize("name, k, refusal", [
        ("hier", 1, "needs at least 2 lanes"),
        ("rmb-2ring", 1, "needs at least 2 lanes"),
        ("rmb-2ring", 5, "k=5 is odd"),
    ], ids=["hier", "rmb-2ring", "rmb-2ring-k5"])
    def test_lane_splitting_fabrics_refuse_one_lane(self, name, k, refusal):
        # Widening k=1 to 2 lanes would race on twice the flat ring's
        # wire budget, and rounding k=5 down to 2 + 2 on less of it; the
        # fabric is refused by name instead.
        with pytest.raises(ConfigurationError,
                           match=f"{name!r} .*{refusal}"):
            build_network(name, nodes=16, k=k)

    def test_make_batch_skips_fixed_points(self):
        batch = make_batch([(0, 0), (1, 2)], data_flits=1)
        assert len(batch) == 1
        assert batch[0].source == 1
