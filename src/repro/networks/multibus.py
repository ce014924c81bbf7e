"""Conventional (non-reconfigurable) multiple-bus system — Mudge et al.,
paper reference [5].

``k`` global buses span all ``N`` nodes.  A message seizes one whole bus
for its full duration (a global bus has no notion of segments, so span
does not matter, but at most ``k`` messages are ever in flight).  A
central arbiter grants buses in FIFO order.

This is the baseline the RMB's concluding remark contrasts against: "an
RMB with k buses should not be considered equivalent of a k bus system —
an RMB with k buses can support many more than k virtual buses
simultaneously" (experiment E15).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.flits import Message
from repro.errors import ProtocolError, TopologyError
from repro.networks.base import BatchResult, ComparisonNetwork

#: Extra ticks per transaction for arbitration plus end-to-end
#: propagation on the long global wire.  The RMB paper's VLSI argument is
#: precisely that global buses are long; one tick is the most charitable
#: charge.
BUS_LATENCY = 1.0


class MultiBusNetwork(ComparisonNetwork):
    """``k`` arbitrated global buses.

    Args:
        nodes: node count (affects only validation and reporting; a global
            bus reaches every node in one bus transaction).
        buses: number of parallel global buses ``k``.

    Each transaction pays :data:`BUS_LATENCY` extra ticks.
    """

    name = "multibus"

    def __init__(self, nodes: int, buses: int) -> None:
        super().__init__(nodes)
        if buses < 1:
            raise TopologyError(f"need >= 1 bus, got {buses}")
        self.buses = buses

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        result = BatchResult(self.name, self.nodes, 0.0)
        queue = deque(sorted(messages, key=lambda m: m.message_id))
        # (finish_time, source, destination) per busy bus.
        busy: list[tuple[float, int, int]] = []
        tx_busy: set[int] = set()
        rx_busy: set[int] = set()
        now = 0.0
        while queue or busy:
            if now > max_ticks:
                raise ProtocolError(
                    f"multibus failed to drain within {max_ticks} ticks"
                )
            # Complete transactions due now.
            for finish, source, destination in list(busy):
                if finish <= now:
                    busy.remove((finish, source, destination))
                    tx_busy.discard(source)
                    rx_busy.discard(destination)
            # FIFO grant: only the queue head may take a bus (central
            # arbiter with a single request queue).
            while queue and len(busy) < self.buses:
                head = queue[0]
                if head.source in tx_busy or head.destination in rx_busy:
                    break
                queue.popleft()
                duration = head.total_flits + BUS_LATENCY
                finish = now + duration
                busy.append((finish, head.source, head.destination))
                tx_busy.add(head.source)
                rx_busy.add(head.destination)
                result.delivered += 1
                result.latencies.append(finish)
            now += 1.0
        result.makespan = max(result.latencies) if result.latencies else 0.0
        return result
