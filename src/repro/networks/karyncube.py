"""k-ary n-cube (torus) — the paper's named future-work comparator.

Section 4: "Future research plans also include ... comparison with other
universal interconnection networks such as the k-ary n cube network."
This module carries that comparison out: an ``n``-dimensional torus of
radix ``r`` (``N = r**n`` nodes) with dimension-order routing, shortest
direction per dimension, and two virtual channels per link under the
classic dateline discipline (Dally), which breaks the intra-ring cyclic
channel dependency:

* a worm uses ``vc0`` on every hop of a dimension until the hop that
  crosses that dimension's dateline (the wrap edge through coordinate 0),
  and ``vc1`` from that hop onward;
* since vc0 dependencies never wrap and vc1 dependencies never reach back
  past the dateline, the channel dependency graph is acyclic.

Virtual channels are modelled as separate :class:`Channel` objects
(labels ``vc0``/``vc1``) so the wormhole engine's ownership rules apply
per VC, exactly as per-VC buffer ownership works in hardware.
"""

from __future__ import annotations

from repro.core.flits import Message
from repro.errors import RoutingError, TopologyError
from repro.networks.wormhole import Channel, WormholeEngine


class KAryNCubeNetwork(WormholeEngine):
    """Bidirectional torus with dimension-order + dateline-VC routing.

    Args:
        radix: nodes per ring (``k`` in "k-ary"); must be >= 2.
        dimensions: number of dimensions (``n``); must be >= 1.
    """

    def __init__(self, radix: int, dimensions: int) -> None:
        if radix < 2:
            raise TopologyError(f"radix must be >= 2, got {radix}")
        if dimensions < 1:
            raise TopologyError(f"need >= 1 dimension, got {dimensions}")
        self.radix = radix
        self.dimensions = dimensions
        nodes = radix ** dimensions
        channels = []
        for node in range(nodes):
            for dim in range(dimensions):
                for step in (+1, -1):
                    neighbour = self._neighbour(node, dim, step)
                    direction = "pos" if step > 0 else "neg"
                    for vc in ("vc0", "vc1"):
                        channels.append(Channel(
                            node, neighbour, multiplicity=1,
                            label=f"dim{dim}-{direction}-{vc}",
                        ))
        super().__init__(nodes, channels, self._route, name="karyncube")

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coordinate(self, node: int, dim: int) -> int:
        return (node // (self.radix ** dim)) % self.radix

    def _neighbour(self, node: int, dim: int, step: int) -> int:
        stride = self.radix ** dim
        coordinate = self.coordinate(node, dim)
        wrapped = (coordinate + step) % self.radix
        return node + (wrapped - coordinate) * stride

    def _direction(self, source_coord: int, dest_coord: int) -> int:
        """Shortest travel direction around the ring (+1 ties)."""
        forward = (dest_coord - source_coord) % self.radix
        backward = (source_coord - dest_coord) % self.radix
        return +1 if forward <= backward else -1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, engine: WormholeEngine, message: Message,
               node: int) -> int:
        for dim in range(self.dimensions):
            here = self.coordinate(node, dim)
            target = self.coordinate(message.destination, dim)
            if here == target:
                continue
            origin = self.coordinate(message.source, dim)
            step = self._direction(origin, target)
            neighbour = self._neighbour(node, dim, step)
            vc = self._virtual_channel(origin, here, step)
            direction = "pos" if step > 0 else "neg"
            return engine.channel_between(
                node, neighbour, f"dim{dim}-{direction}-{vc}"
            ).index
        raise RoutingError(
            f"k-ary n-cube routing called at the destination {node}"
        )  # pragma: no cover - engine never calls at the destination

    def _virtual_channel(self, origin: int, here: int, step: int) -> str:
        """Dateline discipline: vc1 on and after the wrap hop."""
        if step > 0:
            crossed = here < origin
            crossing_now = here == self.radix - 1
        else:
            crossed = here > origin
            crossing_now = here == 0
        return "vc1" if (crossed or crossing_now) else "vc0"

    def describe(self) -> str:
        return (f"karyncube(r={self.radix}, n={self.dimensions}, "
                f"N={self.nodes})")
