"""A generic flit-level wormhole-switching simulator.

The comparison networks of paper Section 3 (hypercube, EHC, fat-tree,
mesh) are all wormhole/circuit networks in the era's literature; this
engine models classic wormhole switching [Dally 92, the paper's ref 10]:

* a message is a worm of ``W = data_flits + 2`` flits;
* each unidirectional channel has a one-flit buffer per *sub-channel*
  (a channel's ``multiplicity`` models bundled parallel wires — fat-tree
  capacities, EHC's duplicated dimension);
* a worm acquires a sub-channel at its head and owns it until the tail
  flit leaves it — blocked heads leave the worm holding its channels,
  which is exactly the congestion behaviour the RMB's circuit+compaction
  design competes against;
* routing is a pluggable function choosing the next channel at each node,
  evaluated when the head arrives (so adaptive choices see current state).

The simulator is tick-stepped and deterministic: worms advance in a fixed
order each tick (ascending message id), head first, then body flits front
to back, one hop per flit per tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.flits import Message
from repro.errors import ProtocolError, RoutingError, TopologyError
from repro.networks.base import BatchResult, ComparisonNetwork


@dataclass
class Channel:
    """A unidirectional channel (possibly a bundle of parallel wires).

    Attributes:
        source / sink: node indices.
        multiplicity: number of independent sub-channels in the bundle.
        label: topology-specific tag (e.g. dimension, tree level).
    """

    source: int
    sink: int
    multiplicity: int = 1
    label: str = ""
    index: int = -1
    owners: list[Optional[int]] = field(default_factory=list)
    buffered: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise TopologyError(
                f"channel {self.source}->{self.sink}: multiplicity >= 1"
            )
        self.owners = [None] * self.multiplicity
        self.buffered = [0] * self.multiplicity

    def free_subchannel(self) -> Optional[int]:
        """Index of an unowned sub-channel, or ``None``."""
        for sub, owner in enumerate(self.owners):
            if owner is None:
                return sub
        return None


#: Routing callback: (engine, message, current_node) -> channel index.
#: Must return a channel whose ``source`` is ``current_node``; adaptive
#: routers may inspect channel owners through the engine.
RouteFn = Callable[["WormholeEngine", Message, int], int]

#: Concurrent worms per source node: a single network interface, matching
#: the RMB's one-TX rule.
INJECTION_LIMIT = 1
#: Concurrent worms draining per destination, matching the one-RX rule.
EJECTION_LIMIT = 1


@dataclass
class _Worm:
    """Run-time state of one in-flight message."""

    message: Message
    start_time: float
    # (channel index, sub-channel) pairs acquired so far, source side first.
    path: list[tuple[int, int]] = field(default_factory=list)
    flits_at_source: int = 0
    delivered_flits: int = 0
    head_done: bool = False       # head flit absorbed at the destination
    released_upto: int = 0        # path entries fully released
    finish_time: Optional[float] = None

    @property
    def total_flits(self) -> int:
        return self.message.total_flits


class WormholeEngine(ComparisonNetwork):
    """Wormhole network over an explicit channel graph.

    Args:
        nodes: node count.
        channels: channel list (indices assigned in order).
        route: next-channel chooser.
        name: reported network name.

    Each node injects one worm at a time and drains one at a time
    (:data:`INJECTION_LIMIT`, :data:`EJECTION_LIMIT`).
    """

    def __init__(
        self,
        nodes: int,
        channels: Sequence[Channel],
        route: RouteFn,
        name: str = "wormhole",
    ) -> None:
        super().__init__(nodes)
        self.name = name
        self.channels = list(channels)
        for index, channel in enumerate(self.channels):
            channel.index = index
        self.route = route
        self.outgoing: dict[int, list[int]] = {n: [] for n in range(nodes)}
        for channel in self.channels:
            self.outgoing[channel.source].append(channel.index)
        self.now = 0.0
        self._worms: list[_Worm] = []
        self._active_tx: dict[int, int] = {}
        self._active_rx: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def channel_between(self, source: int, sink: int,
                        label: Optional[str] = None) -> Channel:
        """The (first) channel from ``source`` to ``sink``.

        Raises:
            TopologyError: if no such channel exists.
        """
        for index in self.outgoing[source]:
            channel = self.channels[index]
            if channel.sink == sink and (label is None or channel.label == label):
                return channel
        raise TopologyError(f"no channel {source}->{sink} (label={label!r})")

    def link_count(self) -> int:
        """Total wires: sum of channel multiplicities."""
        return sum(channel.multiplicity for channel in self.channels)

    # ------------------------------------------------------------------
    # Batch driver
    # ------------------------------------------------------------------
    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        pending = sorted(messages, key=lambda m: m.message_id)
        for message in pending:
            if not 0 <= message.destination < self.nodes:
                raise RoutingError(
                    f"message {message.message_id} destination out of range"
                )
        waiting = list(pending)
        result = BatchResult(self.name, self.nodes, 0.0)
        start = self.now
        while waiting or self._worms:
            if self.now - start > max_ticks:
                raise ProtocolError(
                    f"{self.describe()} failed to drain: "
                    f"{len(waiting)} waiting, {len(self._worms)} in flight "
                    f"after {max_ticks} ticks"
                )
            waiting = self._inject(waiting)
            self._tick()
            finished = [worm for worm in self._worms
                        if worm.finish_time is not None]
            for worm in finished:
                result.delivered += 1
                result.latencies.append(worm.finish_time - worm.start_time)
                self._worms.remove(worm)
        result.makespan = self.now - start
        return result

    def _inject(self, waiting: list[Message]) -> list[Message]:
        still_waiting = []
        for message in waiting:
            active = self._active_tx.get(message.source, 0)
            if active >= INJECTION_LIMIT:
                still_waiting.append(message)
                continue
            worm = _Worm(message=message, start_time=self.now,
                         flits_at_source=message.total_flits)
            self._worms.append(worm)
            self._active_tx[message.source] = active + 1
        return still_waiting

    # ------------------------------------------------------------------
    # Core tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.now += 1.0
        for worm in self._worms:
            if worm.finish_time is None:
                self._advance_worm(worm)

    def _head_node(self, worm: _Worm) -> int:
        if not worm.path:
            return worm.message.source
        channel_index, _sub = worm.path[-1]
        return self.channels[channel_index].sink

    def _advance_worm(self, worm: _Worm) -> None:
        destination = worm.message.destination
        head_node = self._head_node(worm)

        # 1. Head movement: absorb at the destination or acquire onward.
        if not worm.head_done:
            if head_node == destination and worm.path:
                if self._try_start_ejection(worm):
                    worm.head_done = True
                    # Absorb the head flit itself from the final channel.
                    self._drain_from(worm, len(worm.path) - 1)
            else:
                channel_index = self.route(self, worm.message, head_node)
                channel = self.channels[channel_index]
                if channel.source != head_node:
                    raise RoutingError(
                        f"router returned channel {channel.source}->"
                        f"{channel.sink} at node {head_node}"
                    )
                sub = channel.free_subchannel()
                if sub is not None and channel.buffered[sub] == 0:
                    channel.owners[sub] = worm.message.message_id
                    channel.buffered[sub] = 0
                    self._shift_into(worm, channel, sub)
        else:
            # 2. Ejection: one flit per tick leaves the last channel.
            self._drain_from(worm, len(worm.path) - 1)

        # 3. Body flits ripple forward behind the head.
        self._ripple(worm)

        # 4. Completion check.
        if worm.delivered_flits == worm.total_flits:
            worm.finish_time = self.now
            self._active_tx[worm.message.source] -= 1
            self._active_rx[destination] -= 1

    def _try_start_ejection(self, worm: _Worm) -> bool:
        destination = worm.message.destination
        active = self._active_rx.get(destination, 0)
        if active >= EJECTION_LIMIT:
            return False
        self._active_rx[destination] = active + 1
        return True

    def _shift_into(self, worm: _Worm, channel: Channel, sub: int) -> None:
        """Move the front-most flit into a newly acquired channel."""
        if worm.path:
            previous_index, previous_sub = worm.path[-1]
            previous = self.channels[previous_index]
            if previous.buffered[previous_sub] == 0:  # pragma: no cover
                raise ProtocolError(
                    f"worm {worm.message.message_id}: head flit missing from "
                    f"channel {previous.source}->{previous.sink}"
                )
            previous.buffered[previous_sub] -= 1
            channel.buffered[sub] += 1
        else:
            if worm.flits_at_source == 0:  # pragma: no cover
                raise ProtocolError(
                    f"worm {worm.message.message_id} has no flits to inject"
                )
            worm.flits_at_source -= 1
            channel.buffered[sub] += 1
        worm.path.append((channel.index, sub))

    def _drain_from(self, worm: _Worm, last: int) -> None:
        """Absorb one flit from the final channel into the destination."""
        if last < 0:
            return
        channel_index, sub = worm.path[last]
        channel = self.channels[channel_index]
        if channel.buffered[sub] > 0:
            channel.buffered[sub] -= 1
            if worm.head_done:
                worm.delivered_flits += 1
            self._maybe_release(worm)

    def _ripple(self, worm: _Worm) -> None:
        """Advance body flits one hop where space allows, front to back.

        Positions below ``released_upto`` are channels the tail has left —
        they may already belong to another worm, so they are never touched.
        """
        for position in range(len(worm.path) - 1, worm.released_upto, -1):
            ahead_index, ahead_sub = worm.path[position]
            behind_index, behind_sub = worm.path[position - 1]
            ahead = self.channels[ahead_index]
            behind = self.channels[behind_index]
            if ahead.buffered[ahead_sub] == 0 and behind.buffered[behind_sub] > 0:
                behind.buffered[behind_sub] -= 1
                ahead.buffered[ahead_sub] += 1
                self._maybe_release(worm)
        # Feed from the source into the first channel (only while the worm
        # still owns it; release implies the source already drained).
        if worm.path and worm.flits_at_source > 0 and worm.released_upto == 0:
            first_index, first_sub = worm.path[0]
            first = self.channels[first_index]
            if first.buffered[first_sub] == 0:
                worm.flits_at_source -= 1
                first.buffered[first_sub] += 1

    def _maybe_release(self, worm: _Worm) -> None:
        """Release channels the tail has fully left (front of the path)."""
        sent_everything = worm.flits_at_source == 0
        if not sent_everything:
            return
        while worm.released_upto < len(worm.path):
            channel_index, sub = worm.path[worm.released_upto]
            channel = self.channels[channel_index]
            if channel.buffered[sub] > 0:
                break
            # The source is empty and every channel behind this one has
            # already been released, so the tail flit has passed: release.
            channel.owners[sub] = None
            worm.released_upto += 1
