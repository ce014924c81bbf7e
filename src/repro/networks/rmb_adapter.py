"""Adapters presenting the RMB through the comparison-network interface.

Each ``route_batch`` call builds a fresh ring (state never leaks between
experiment points), submits the batch, drains it under invariant
monitoring, and reports the same :class:`BatchResult` shape as every other
network.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.hier.hier import HierRMB
from repro.hier.tworing import TwoRingRMB
from repro.networks.base import BatchResult, ComparisonNetwork


class RMBNetworkAdapter(ComparisonNetwork):
    """Single-ring RMB as a :class:`ComparisonNetwork`."""

    name = "rmb"

    def __init__(self, config: RMBConfig, seed: int = 0,
                 check_invariants: bool = True) -> None:
        super().__init__(config.nodes)
        self.config = config
        self.seed = seed
        self.check_invariants = check_invariants
        self.last_ring: Optional[RMBRing] = None

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        ring = RMBRing(
            self.config, seed=self.seed,
            check_invariants=self.check_invariants,
            trace_kinds=set(),
        )
        self.last_ring = ring
        ring.submit_all(messages)
        ring.drain(max_ticks=max_ticks)
        result = BatchResult(self.name, self.nodes, ring.sim.now)
        for record in ring.routing.records.values():
            if record.finished:
                result.delivered += 1
                latency = record.latency()
                if latency is not None:
                    result.latencies.append(latency)
        return result

    def describe(self) -> str:
        return f"rmb(N={self.nodes}, k={self.config.lanes})"


class TwoRingRMBAdapter(ComparisonNetwork):
    """Bidirectional (two-ring) RMB as a :class:`ComparisonNetwork`."""

    name = "rmb-2ring"

    def __init__(self, config: RMBConfig, lanes_per_direction: Optional[int] = None,
                 seed: int = 0, check_invariants: bool = True) -> None:
        super().__init__(config.nodes)
        self.config = config
        self.lanes_per_direction = lanes_per_direction
        self.seed = seed
        self.check_invariants = check_invariants
        self.last_network: Optional[TwoRingRMB] = None

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        network = TwoRingRMB(
            self.config,
            lanes_per_direction=self.lanes_per_direction,
            seed=self.seed,
            check_invariants=self.check_invariants,
        )
        self.last_network = network
        network.submit_all(messages)
        network.drain(max_ticks=max_ticks)
        result = BatchResult(self.name, self.nodes, network.sim.now)
        for ring in (network.clockwise, network.counterclockwise):
            for record in ring.routing.records.values():
                if record.finished:
                    result.delivered += 1
                    latency = record.latency()
                    if latency is not None:
                        result.latencies.append(latency)
        return result

    def describe(self) -> str:
        lanes = self.lanes_per_direction
        return f"rmb-2ring(N={self.nodes}, lanes/dir={lanes})"


class HierRMBAdapter(ComparisonNetwork):
    """Hierarchical RMB fabric as a :class:`ComparisonNetwork`.

    Deliveries and latencies are *journey-level* (end to end across
    bridge hops), so the hierarchy is scored on what a PE actually
    experiences, not on per-ring leg counts.  ``name`` carries the
    requested registry spelling (``hier`` or ``hier:MxN``) so arena rows
    and orderings stay stable for golden fixtures.
    """

    def __init__(self, locals: int, nodes_per_local: int, k: int,
                 seed: int = 0, check_invariants: bool = True,
                 name: str = "hier") -> None:
        super().__init__(locals * nodes_per_local)
        self.name = name
        self.locals = locals
        self.nodes_per_local = nodes_per_local
        self.k = k
        self.seed = seed
        self.check_invariants = check_invariants
        self.last_network: Optional[HierRMB] = None

    def route_batch(self, messages: Sequence[Message],
                    max_ticks: float = 1_000_000.0) -> BatchResult:
        network = HierRMB(
            locals=self.locals,
            nodes_per_local=self.nodes_per_local,
            lanes=self.k,
            seed=self.seed,
            check_invariants=self.check_invariants,
        )
        self.last_network = network
        network.submit_all(messages)
        network.drain(max_ticks=max_ticks)
        result = BatchResult(self.name, self.nodes, network.sim.now)
        for journey in network.journeys.values():
            if journey.finished:
                result.delivered += 1
                latency = journey.latency()
                if latency is not None:
                    result.latencies.append(latency)
        return result

    def describe(self) -> str:
        local_lanes = max(1, self.k - 1)
        global_lanes = min(self.nodes_per_local, max(2, self.k))
        total = self.nodes * local_lanes + self.locals * global_lanes
        budget = self.nodes * self.k
        return (f"hier({self.locals}x{self.nodes_per_local}, k={self.k}, "
                f"lanes {local_lanes}/{global_lanes}, "
                f"wires {total}<={budget})")
