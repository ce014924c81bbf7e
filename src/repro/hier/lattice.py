"""n-dimensional lattices of RMB rings as a :class:`RingFabric`.

The paper's Section 4 future work, "reconfigurable multiple bus systems
for 2- and 3-D grid connected computers", realised: a processor lattice
of shape ``(s_0, ..., s_{n-1})`` where every axis-aligned *line* (fix all
coordinates but one) is its own RMB ring, so a node belongs to ``n``
rings.  A node's address is the row-major index of its coordinates.

Messages travel dimension-ordered: one leg per differing coordinate, in
ascending dimension order, with a store-and-forward hop at every turn.
For ``n = 2`` this is the classic grid of row and column rings; ``n = 3``
is the paper's 3-D case.  Ring sizes inherit the RMB's even-and-at-least-4
requirement.  Everything composite — building the rings, leg chaining,
draining, stats, checkpoints — comes from :class:`RingFabric`; this
module contributes the route map and the member list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.errors import ConfigurationError, ProtocolError
from repro.hier.fabric import Hop, Member, RingFabric, RouteMap


def line_ring_name(dim: int, fixed: Sequence[int]) -> str:
    """Name of the ring along ``dim`` whose other coordinates are ``fixed``."""
    return f"d{dim}@{tuple(fixed)}"


@dataclass(frozen=True)
class DimensionOrderRouteMap(RouteMap):
    """Dimension-ordered routing over a lattice of shape ``shape``.

    Pure address arithmetic: for each coordinate that differs, in
    ascending dimension order, one hop along that dimension's ring
    through the message's current position.
    """

    shape: Tuple[int, ...]

    @property
    def nodes(self) -> int:
        """Total addressable lattice nodes."""
        return math.prod(self.shape)

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Lattice coordinates of node ``node`` (row-major)."""
        if not 0 <= node < self.nodes:
            raise ProtocolError(
                f"lattice address {node} out of range for shape "
                f"{self.shape} (0..{self.nodes - 1})"
            )
        coords = []
        for size in reversed(self.shape):
            node, coordinate = divmod(node, size)
            coords.append(coordinate)
        return tuple(reversed(coords))

    def node_id(self, coords: Sequence[int]) -> int:
        """Node address of lattice coordinates ``coords`` (row-major)."""
        node = 0
        for size, coordinate in zip(self.shape, coords):
            node = node * size + coordinate
        return node

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        if message.extra_destinations:
            raise ProtocolError(
                f"message {message.message_id} multicasts; the lattice "
                f"carries unicast journeys only"
            )
        position = list(self.coordinates(message.source))
        target = self.coordinates(message.destination)
        hops: List[Hop] = []
        for dim, there in enumerate(target):
            here = position[dim]
            if here != there:
                hops.append(Hop(
                    ring=line_ring_name(dim, position[:dim] + position[dim + 1:]),
                    source=here, destination=there))
                position[dim] = there
        return tuple(hops)


class RMBLattice(RingFabric):
    """An n-dimensional lattice of RMB rings.

    Args:
        shape: processors per dimension; every entry even and >= 4.
        lanes: lane count for every ring.
        config: optional parameter template (cycle period, retry policy,
            check level, ...); ``nodes``/``lanes`` are overridden per
            ring.  The built-in template runs no invariant monitor
            (``check_level="off"``).
        seed: root seed; member rings get ``seed + 1, seed + 2, ...`` in
            member order (dimension-major, then row-major over the fixed
            coordinates).

    Member rings record no trace.
    """

    def __init__(
        self,
        shape: Sequence[int],
        lanes: int,
        config: Optional[RMBConfig] = None,
        seed: int = 0,
    ) -> None:
        shape = tuple(shape)
        if len(shape) < 1:
            raise ConfigurationError("lattice needs at least one dimension")
        for size in shape:
            if size < 4 or size % 2:
                raise ConfigurationError(
                    f"every lattice dimension must be even and >= 4, "
                    f"got {shape}"
                )
        route_map = DimensionOrderRouteMap(shape)
        template = config if config is not None else RMBConfig(
            nodes=max(shape), lanes=lanes, cycle_period=2.0,
            check_level="off")
        members: List[Member] = []
        for dim, size in enumerate(shape):
            ring_config = template.with_overrides(nodes=size, lanes=lanes)
            for fixed in itertools.product(*(
                    range(extent) for axis, extent in enumerate(shape)
                    if axis != dim)):
                members.append((line_ring_name(dim, fixed), ring_config,
                                seed + len(members) + 1))
        super().__init__(
            route_map, members,
            name=f"lattice {'x'.join(str(size) for size in shape)}",
        )
        self.nodes = route_map.nodes
        self.node_id = route_map.node_id
        self.coordinates = route_map.coordinates
