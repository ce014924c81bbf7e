"""The multi-ring composite layer: ring fabrics, route maps, hierarchies.

A :class:`RingFabric` composes named :class:`~repro.core.network.RMBRing`
members on one shared simulator behind the single-ring workload surface
(``submit`` / ``run`` / ``drain`` / ``stats``), driving multi-leg
journeys through a declarative :class:`RouteMap` with store-and-forward
re-injection at ring boundaries.  :class:`TwoRingRMB` (the paper's
Section 2.1 two-ring variant), :class:`HierRMB` (local rings bridged
by a global ring) and :class:`RMBLattice` (the Section 4 n-dimensional
grid of rings, routed dimension by dimension) are all thin route-map
instances of it.
"""

from repro.hier.fabric import (
    FabricRecord,
    Hop,
    HopRecord,
    RingFabric,
    RouteMap,
)
from repro.hier.hier import GLOBAL_RING, HierRMB, HierRouteMap, local_ring_name
from repro.hier.lattice import DimensionOrderRouteMap, RMBLattice
from repro.hier.tworing import MirrorRouteMap, TwoRingRMB

__all__ = [
    "DimensionOrderRouteMap",
    "FabricRecord",
    "GLOBAL_RING",
    "HierRMB",
    "HierRouteMap",
    "Hop",
    "HopRecord",
    "MirrorRouteMap",
    "RMBLattice",
    "RingFabric",
    "RouteMap",
    "TwoRingRMB",
    "local_ring_name",
]
