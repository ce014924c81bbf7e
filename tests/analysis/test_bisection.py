"""Tests for bisection bandwidth: analytic values vs built topologies."""

import pytest

from repro.analysis.bisection import (
    dimension_half,
    ehc_bisection,
    empirical_bisection,
    fattree_bisection,
    hypercube_bisection,
    mesh_bisection,
    rmb_bisection,
)
from repro.networks import (
    EnhancedHypercubeNetwork,
    FatTreeNetwork,
    HypercubeNetwork,
    MeshNetwork,
)


def test_rmb_bisection_is_k():
    assert rmb_bisection(64, 8) == 8.0


def test_hypercube_empirical_matches_analytic():
    for n in (8, 16, 32):
        net = HypercubeNetwork(n)
        bits = n.bit_length() - 1
        measured = empirical_bisection(net, dimension_half(bits - 1))
        assert measured == hypercube_bisection(n, 1) == n / 2


def test_ehc_doubled_dimension_doubles_cut():
    net = EnhancedHypercubeNetwork(16)
    measured = empirical_bisection(net, dimension_half(0))
    assert measured == 16.0 == ehc_bisection(16, 1)  # the doubled dimension
    other_cut = empirical_bisection(net, dimension_half(3))
    assert other_cut == 8.0


def test_mesh_empirical_matches_analytic():
    for n, k in [(16, 1), (64, 4)]:
        import math

        net = MeshNetwork(n, multiplicity=math.isqrt(k))

        side = math.isqrt(n)

        def left_half(node, side=side):
            return node % side < side // 2

        measured = empirical_bisection(net, left_half)
        assert measured == pytest.approx(mesh_bisection(n, k))


def test_fattree_root_capacity_is_bisection():
    for n, k in [(16, 4), (32, 8)]:
        net = FatTreeNetwork(n, k=k)

        def left_subtree(node, net=net):
            # processors 0..N/2-1 plus the switches above them.
            if node < net.processors:
                return node < net.processors // 2
            heap = node - net.processors + 1
            while heap > 3:
                heap //= 2
            return heap == 2

        measured = empirical_bisection(net, left_subtree)
        # The only channels crossing are root<->left-child bundles.
        assert measured == fattree_bisection(n, k) == k
