"""Ideal full crossbar — the contention-floor reference network.

Every source owns a dedicated path to every destination; the only conflict
is at the destination's single receive port.  No real machine of the
paper's era could build this at scale (its cost model is the reason the
paper exists), but it bounds from below what any of the compared networks
can achieve, which makes it a useful calibration row in the race tables.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.flits import Message
from repro.errors import ProtocolError
from repro.networks.base import BatchResult, ComparisonNetwork

#: Extra ticks a transfer pays at the ports on top of its flits.
PORT_LATENCY = 1.0


class CrossbarNetwork(ComparisonNetwork):
    """An ``N x N`` non-blocking crossbar with single-port nodes."""

    name = "crossbar"

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        result = BatchResult(self.name, self.nodes, 0.0)
        # Per-source FIFO of pending messages (one TX port per node).
        by_source: dict[int, deque[Message]] = {}
        for message in sorted(messages, key=lambda m: m.message_id):
            by_source.setdefault(message.source, deque()).append(message)
        tx_free_at = {source: 0.0 for source in by_source}
        rx_free_at: dict[int, float] = {}
        now = 0.0
        remaining = sum(len(queue) for queue in by_source.values())
        while remaining > 0:
            if now > max_ticks:
                raise ProtocolError(
                    f"crossbar failed to drain within {max_ticks} ticks"
                )
            for source, queue in by_source.items():
                if not queue or tx_free_at[source] > now:
                    continue
                head = queue[0]
                if rx_free_at.get(head.destination, 0.0) > now:
                    continue
                queue.popleft()
                remaining -= 1
                finish = now + head.total_flits + PORT_LATENCY
                tx_free_at[source] = finish
                rx_free_at[head.destination] = finish
                result.delivered += 1
                result.latencies.append(finish)
            now += 1.0
        result.makespan = max(result.latencies) if result.latencies else 0.0
        return result
