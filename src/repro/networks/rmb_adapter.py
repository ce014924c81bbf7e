"""The RMB networks through the comparison-network interface.

One adapter races every RMB network, the flat ring and each ring fabric
alike.  Each ``route_batch`` call builds a fresh network from the
adapter's factory (state never leaks between experiment points), submits
the batch, drains it, and reads its message-level ``stats()``, so a
fabric is scored on journeys (end to end across bridge hops), not on
per-ring legs.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.hier.fabric import RingFabric
from repro.networks.base import BatchResult, ComparisonNetwork


class RMBNetworkAdapter(ComparisonNetwork):
    """An RMB network as a :class:`ComparisonNetwork`.

    ``name`` carries the requested registry spelling (``rmb``,
    ``rmb-2ring``, ``hier`` or ``hier:MxN``) so arena rows and orderings
    stay stable for golden fixtures.
    """

    def __init__(self, name: str, nodes: int,
                 factory: Callable[[], Union[RMBRing, RingFabric]]) -> None:
        super().__init__(nodes)
        self.name = name
        self.factory = factory

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        network = self.factory()
        network.submit_all(messages)
        network.drain(max_ticks=max_ticks)
        stats = network.stats()
        return BatchResult(self.name, self.nodes, network.sim.now,
                           latencies=stats.latencies,
                           delivered=stats.completed)
