"""Fat tree with capacity-limited channels — Leiserson [6], paper Figure 11.

A complete binary fat tree over ``N`` processors.  The channel between a
node at distance ``i - 1`` from the processors and its parent at distance
``i`` has capacity (wire multiplicity) ``min(2**(i-1), k)`` in each
direction.  With ``k = N`` this is Leiserson's universal fat tree
(capacity ``2**i`` at distance ``i``); capping at ``k`` yields exactly the
paper's Figure 11 structure: processors grouped into ``N/k`` leaf clusters
that are complete fat trees internally, joined by ``k``-wide channels
above — the minimum fat tree supporting a ``k``-permutation.

Routing is up/down: ascend until the destination lies in the current
subtree, then descend.  Up channels are bundles; the engine grabs any free
sub-channel (the standard adaptive choice).  Up/down routing is
deadlock-free because every path uses up-channels strictly before
down-channels.
"""

from __future__ import annotations

from repro.core.flits import Message
from repro.errors import RoutingError, TopologyError
from repro.networks.hypercube import is_power_of_two
from repro.networks.wormhole import Channel, WormholeEngine


class FatTreeNetwork(WormholeEngine):
    """Binary fat tree over ``processors`` leaves with capacity cap ``k``.

    Engine node ids: ``0 .. N-1`` are processors; switch with heap index
    ``h`` (``1 <= h <= N - 1``, 1 = root) is engine node ``N + h - 1``.
    The heap index of processor ``p`` is ``N + p``.
    """

    def __init__(self, processors: int, k: int | None = None) -> None:
        if not is_power_of_two(processors) or processors < 2:
            raise TopologyError(
                f"fat tree size must be a power of two >= 2, got {processors}"
            )
        self.processors = processors
        self.k = processors if k is None else k
        if self.k < 1:
            raise TopologyError(f"capacity cap k must be >= 1, got {self.k}")
        channels = self._build_channels()
        super().__init__(
            processors + processors - 1,
            channels,
            self._route,
            name="fattree",
        )

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _heap_of(self, node: int) -> int:
        """Heap index of an engine node (processor or switch)."""
        if node < self.processors:
            return self.processors + node
        return node - self.processors + 1

    def _engine_of(self, heap: int) -> int:
        """Engine node id of a heap index."""
        if heap >= self.processors:
            return heap - self.processors
        return self.processors + heap - 1

    def level_of(self, heap: int) -> int:
        """Distance from the processor level (processors are level 0)."""
        total_levels = self.processors.bit_length()  # root level = log2(N)
        return total_levels - heap.bit_length()

    def capacity(self, child_level: int) -> int:
        """Multiplicity of the channel from level ``child_level`` upward."""
        return min(1 << child_level, self.k)

    def _build_channels(self) -> list[Channel]:
        channels = []
        for heap in range(2, 2 * self.processors):
            child = self._engine_of(heap)
            parent = self._engine_of(heap // 2)
            width = self.capacity(self.level_of(heap))
            channels.append(Channel(child, parent, width, "up"))
            channels.append(Channel(parent, child, width, "down"))
        return channels

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _in_subtree(self, switch_heap: int, processor: int) -> bool:
        leaf = self.processors + processor
        while leaf > switch_heap:
            leaf //= 2
        return leaf == switch_heap

    def _route(self, engine: WormholeEngine, message: Message,
               node: int) -> int:
        heap = self._heap_of(node)
        destination = message.destination
        if node < self.processors:
            # Processor: single channel up to its parent switch.
            parent = self._engine_of(heap // 2)
            return engine.channel_between(node, parent, "up").index
        if self._in_subtree(heap, destination):
            # Descend towards the destination leaf.
            leaf = self.processors + destination
            child = leaf
            while child // 2 != heap:
                child //= 2
            return engine.channel_between(
                node, self._engine_of(child), "down"
            ).index
        if heap == 1:
            raise RoutingError(
                f"destination {destination} not under the root"
            )  # pragma: no cover - structurally impossible
        parent = self._engine_of(heap // 2)
        return engine.channel_between(node, parent, "up").index

    # ------------------------------------------------------------------
    # Structural accounting (cross-checked against analysis.cost)
    # ------------------------------------------------------------------
    def links_per_level(self) -> dict[int, int]:
        """One-directional wire count per child level (Figure 11 check)."""
        per_level: dict[int, int] = {}
        for heap in range(2, 2 * self.processors):
            level = self.level_of(heap)
            per_level[level] = per_level.get(level, 0) + self.capacity(level)
        return per_level
