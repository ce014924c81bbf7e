"""Comparison networks for the paper's Section 3 evaluation."""

from repro.networks.base import (
    BatchResult,
    ComparisonNetwork,
    make_batch,
    permutation_pairs,
)
from repro.networks.crossbar import CrossbarNetwork
from repro.networks.ehc import EnhancedHypercubeNetwork
from repro.networks.fattree import FatTreeNetwork
from repro.networks.gfc import GeneralizedFoldingCubeNetwork
from repro.networks.hypercube import HypercubeNetwork, ecube_route, is_power_of_two
from repro.networks.karyncube import KAryNCubeNetwork
from repro.networks.mesh import MeshNetwork, square_side
from repro.networks.multibus import MultiBusNetwork
from repro.networks.registry import (
    EXTRA_NETWORKS,
    PAPER_NETWORKS,
    build_network,
)
from repro.networks.rmb_adapter import RMBNetworkAdapter
from repro.networks.wormhole import Channel, WormholeEngine

__all__ = [
    "BatchResult",
    "Channel",
    "ComparisonNetwork",
    "CrossbarNetwork",
    "EXTRA_NETWORKS",
    "EnhancedHypercubeNetwork",
    "FatTreeNetwork",
    "GeneralizedFoldingCubeNetwork",
    "HypercubeNetwork",
    "KAryNCubeNetwork",
    "MeshNetwork",
    "MultiBusNetwork",
    "PAPER_NETWORKS",
    "RMBNetworkAdapter",
    "WormholeEngine",
    "build_network",
    "ecube_route",
    "is_power_of_two",
    "make_batch",
    "permutation_pairs",
    "square_side",
]
