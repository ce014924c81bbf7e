"""Enhanced hypercube (EHC) — Choi & Somani, paper reference [4].

"A hypercube with duplicate pairs of links in any one dimension is defined
as the Enhanced Hyper Cube.  An n-dimensional EHC has 2^n nodes and each
node has n + 1 links.  The GFC and EHC networks can embed any arbitrary
permutation in circuit switching mode."

Behaviourally we model the EHC as a hypercube whose dimension 0
(:data:`DOUBLED_DIMENSION`) has link multiplicity 2; e-cube routing is
unchanged and a blocked head may take either duplicate of the doubled
dimension.  (The constructive
permutation-embedding algorithm of [4] needs global precomputation; our
simulator exercises the same hardware under on-line routing, which is the
regime the RMB paper compares against.)
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.networks.hypercube import (
    ecube_route,
    hypercube_channels,
    is_power_of_two,
)
from repro.networks.wormhole import WormholeEngine

#: The dimension whose links are duplicated.
DOUBLED_DIMENSION = 0


class EnhancedHypercubeNetwork(WormholeEngine):
    """Hypercube with one doubled dimension (degree ``n + 1`` per node)."""

    def __init__(self, nodes: int) -> None:
        if not is_power_of_two(nodes) or nodes < 2:
            raise TopologyError(
                f"EHC size must be a power of two >= 2, got {nodes}"
            )
        dimension = nodes.bit_length() - 1
        channels = hypercube_channels(
            dimension, multiplicities={DOUBLED_DIMENSION: 2}
        )
        super().__init__(nodes, channels, ecube_route, name="ehc")
        self.dimension = dimension
