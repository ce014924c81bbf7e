"""Structural and routing tests for hypercube, EHC, GFC, mesh, fat tree."""

import pytest

from repro.core.flits import Message
from repro.errors import TopologyError
from repro.networks import (
    EnhancedHypercubeNetwork,
    FatTreeNetwork,
    GeneralizedFoldingCubeNetwork,
    HypercubeNetwork,
    MeshNetwork,
)
from repro.networks.hypercube import is_power_of_two
from repro.networks.mesh import square_side


class TestHypercube:
    def test_structure(self):
        net = HypercubeNetwork(16)
        assert net.dimension == 4
        # N * log N directed channels.
        assert len(net.channels) == 16 * 4

    def test_size_must_be_power_of_two(self):
        with pytest.raises(TopologyError):
            HypercubeNetwork(12)

    def test_ecube_single_hop(self):
        net = HypercubeNetwork(8)
        result = net.route_batch([Message(0, 0, 1, data_flits=2)])
        assert result.latencies[0] == pytest.approx(1 + 4)

    def test_ecube_path_length_is_hamming_distance(self):
        net = HypercubeNetwork(16)
        result = net.route_batch([Message(0, 0b0000, 0b1111, data_flits=0)])
        # 4 hops + 2 flits.
        assert result.latencies[0] == pytest.approx(4 + 2)

    def test_all_pairs_deliverable(self):
        net = HypercubeNetwork(8)
        messages = [
            Message(index, src, dst, data_flits=1)
            for index, (src, dst) in enumerate(
                (s, d) for s in range(8) for d in range(8) if s != d
            )
        ]
        result = net.route_batch(messages)
        assert result.delivered == len(messages)

    def test_is_power_of_two_helper(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(6)


class TestEHC:
    def test_doubled_dimension_multiplicity(self):
        net = EnhancedHypercubeNetwork(8)
        doubled = [c for c in net.channels if c.label == "dim0"]
        single = [c for c in net.channels if c.label in ("dim1", "dim2")]
        assert all(c.multiplicity == 2 for c in doubled)
        assert all(c.multiplicity == 1 for c in single)

    def test_doubled_dimension_bounds(self):
        with pytest.raises(TopologyError):
            EnhancedHypercubeNetwork(1)


class TestGFC:
    def test_structure(self):
        net = GeneralizedFoldingCubeNetwork(4, fold=2)
        assert net.nodes == 8  # processors
        assert net.super_count == 4
        dims = [c for c in net.channels if c.label.startswith("dim")]
        assert all(c.multiplicity == 2 for c in dims)

    def test_intra_super_node_delivery(self):
        net = GeneralizedFoldingCubeNetwork(4, fold=2)
        result = net.route_batch([Message(0, 1, 0, data_flits=2)])
        assert result.delivered == 1

    def test_inter_super_node_delivery(self):
        net = GeneralizedFoldingCubeNetwork(4, fold=2)
        result = net.route_batch([Message(0, 1, 7, data_flits=2)])
        assert result.delivered == 1

    def test_full_permutation(self):
        net = GeneralizedFoldingCubeNetwork(4, fold=2)
        messages = [Message(i, i, (i + 3) % 8, data_flits=2)
                    for i in range(8)]
        result = net.route_batch(messages)
        assert result.delivered == 8

    def test_fold_validation(self):
        with pytest.raises(TopologyError):
            GeneralizedFoldingCubeNetwork(3, fold=2)
        with pytest.raises(TopologyError):
            GeneralizedFoldingCubeNetwork(4, fold=0)


class TestMesh:
    def test_structure(self):
        net = MeshNetwork(16)
        assert net.rows == 4 and net.cols == 4
        # 2 * rows * (cols-1) horizontal + 2 * cols * (rows-1) vertical.
        assert len(net.channels) == 2 * 4 * 3 * 2

    def test_square_required(self):
        with pytest.raises(TopologyError):
            MeshNetwork(12)
        assert square_side(25) == 5

    def test_xy_route_corner_to_corner(self):
        net = MeshNetwork(16)
        result = net.route_batch([Message(0, 0, 15, data_flits=0)])
        # Manhattan distance 6 + 2 flits.
        assert result.latencies[0] == pytest.approx(6 + 2)

    def test_permutation_delivery(self):
        net = MeshNetwork(16)
        messages = [Message(i, i, 15 - i, data_flits=3) for i in range(16)
                    if i != 15 - i]
        result = net.route_batch(messages)
        assert result.delivered == len(messages)

    def test_multiplicity_widens_channels(self):
        net = MeshNetwork(16, multiplicity=2)
        assert all(c.multiplicity == 2 for c in net.channels)


class TestFatTree:
    def test_structure_counts(self):
        net = FatTreeNetwork(8, k=4)
        # 8 processors + 7 switches.
        assert net.nodes == 15

    def test_capacity_profile_capped_at_k(self):
        net = FatTreeNetwork(16, k=4)
        assert net.capacity(0) == 1
        assert net.capacity(1) == 2
        assert net.capacity(2) == 4
        assert net.capacity(3) == 4   # capped
        uncapped = FatTreeNetwork(16)  # k = N
        assert uncapped.capacity(3) == 8

    def test_sibling_route(self):
        net = FatTreeNetwork(8)
        result = net.route_batch([Message(0, 0, 1, data_flits=0)])
        # Up one level, down one level: 2 hops + 2 flits.
        assert result.latencies[0] == pytest.approx(2 + 2)

    def test_cross_tree_route(self):
        net = FatTreeNetwork(8)
        result = net.route_batch([Message(0, 0, 7, data_flits=0)])
        # Up to the root (3) and down (3).
        assert result.latencies[0] == pytest.approx(6 + 2)

    def test_permutation_delivery(self):
        net = FatTreeNetwork(16, k=4)
        messages = [Message(i, i, 15 - i, data_flits=4) for i in range(16)
                    if i != 15 - i]
        result = net.route_batch(messages)
        assert result.delivered == len(messages)

    def test_levels_link_count_close_to_paper_formula(self):
        # Paper: N log k + N - 2k links (excluding processor attach links).
        import math

        for n, k in [(16, 4), (32, 8), (64, 4)]:
            net = FatTreeNetwork(n, k=k)
            per_level = net.links_per_level()
            switch_links = sum(count for level, count in per_level.items()
                               if level >= 1)
            paper = n * math.log2(k) + n - 2 * k
            assert switch_links == pytest.approx(paper), (n, k)

    def test_size_validation(self):
        with pytest.raises(TopologyError):
            FatTreeNetwork(12)
        with pytest.raises(TopologyError):
            FatTreeNetwork(8, k=0)
