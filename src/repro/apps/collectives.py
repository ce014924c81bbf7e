"""Collective communication patterns on the RMB ring.

The paper's introduction motivates the RMB with high-performance
computing; these are the communication kernels such machines actually
run, built on the public :class:`~repro.core.network.RMBRing` API:

* :func:`ring_shift_round` — every node sends to the node ``distance``
  away (one round of a systolic algorithm);
* :func:`ring_allreduce` — the classic reduce-scatter + all-gather
  schedule: ``2 (N - 1)`` rounds of neighbour sends;
* :func:`all_to_all` — personalised exchange as ``N - 1`` shifted
  permutation rounds (each round is a ring shift, the RMB's best case);
* :func:`broadcast` — one multicast bus tapping every node (the paper's
  deferred broadcast extension, used as a collective);
* :func:`barrier` — a token circulating the full ring.

Each collective returns a :class:`CollectiveResult` with per-round and
total timing, so the examples and benchmarks can compare schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.errors import WorkloadError


@dataclass
class CollectiveResult:
    """Timing of one collective operation."""

    name: str
    nodes: int
    rounds: int
    round_ticks: list[float] = field(default_factory=list)
    total_ticks: float = 0.0
    messages: int = 0

    @property
    def mean_round(self) -> float:
        if not self.round_ticks:
            return 0.0
        return sum(self.round_ticks) / len(self.round_ticks)

    def as_dict(self) -> dict[str, object]:
        return {
            "collective": self.name,
            "N": self.nodes,
            "rounds": self.rounds,
            "total_ticks": self.total_ticks,
            "mean_round": round(self.mean_round, 1),
            "messages": self.messages,
        }


class CollectiveDriver:
    """Runs round-synchronous collectives on a fresh ring per call.

    Args:
        config: ring parameters (every collective builds its own ring so
            results are independent).
        seed: forwarded to the ring.
    """

    def __init__(self, config: RMBConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self._next_id = 0

    # ------------------------------------------------------------------
    def _fresh_ring(self) -> RMBRing:
        self._next_id = 0
        return RMBRing(self.config, seed=self.seed)

    def _send_round(self, ring: RMBRing, pairs: list[tuple[int, int]],
                    data_flits: int) -> float:
        """Submit one round of messages and run until all complete."""
        start = ring.sim.now
        for source, destination in pairs:
            ring.submit(Message(self._next_id, source, destination,
                                data_flits=data_flits,
                                created_at=ring.sim.now))
            self._next_id += 1
        ring.drain(max_ticks=2_000_000)
        return ring.sim.now - start

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def ring_shift_round(self, distance: int,
                         data_flits: int) -> CollectiveResult:
        """All nodes send simultaneously to ``distance`` hops away."""
        nodes = self.config.nodes
        if distance % nodes == 0:
            raise WorkloadError("shift distance must be non-zero mod N")
        ring = self._fresh_ring()
        result = CollectiveResult("ring-shift", nodes, rounds=1)
        pairs = [(node, (node + distance) % nodes) for node in range(nodes)]
        elapsed = self._send_round(ring, pairs, data_flits)
        result.round_ticks.append(elapsed)
        result.total_ticks = elapsed
        result.messages = nodes
        return result

    def ring_allreduce(self, chunk_flits: int) -> CollectiveResult:
        """Reduce-scatter + all-gather: ``2 (N - 1)`` neighbour rounds.

        Each node sends one chunk of ``chunk_flits`` to its clockwise
        neighbour per round — the bandwidth-optimal ring allreduce
        schedule used by modern collective libraries.
        """
        nodes = self.config.nodes
        ring = self._fresh_ring()
        rounds = 2 * (nodes - 1)
        result = CollectiveResult("ring-allreduce", nodes, rounds=rounds)
        pairs = [(node, (node + 1) % nodes) for node in range(nodes)]
        for _ in range(rounds):
            elapsed = self._send_round(ring, pairs, chunk_flits)
            result.round_ticks.append(elapsed)
            result.messages += nodes
        result.total_ticks = sum(result.round_ticks)
        return result

    def all_to_all(self, chunk_flits: int) -> CollectiveResult:
        """Personalised all-to-all as ``N - 1`` shifted rounds.

        Round ``r`` realises the shift-by-``r`` permutation: uniform
        segment load ``r`` per round, the schedule that keeps the ring's
        lanes evenly used.
        """
        nodes = self.config.nodes
        ring = self._fresh_ring()
        result = CollectiveResult("all-to-all", nodes, rounds=nodes - 1)
        for shift in range(1, nodes):
            pairs = [(node, (node + shift) % nodes)
                     for node in range(nodes)]
            elapsed = self._send_round(ring, pairs, chunk_flits)
            result.round_ticks.append(elapsed)
            result.messages += nodes
        result.total_ticks = sum(result.round_ticks)
        return result

    def broadcast(self, root: int, data_flits: int) -> CollectiveResult:
        """Root sends to every other node over one multicast bus."""
        nodes = self.config.nodes
        ring = self._fresh_ring()
        result = CollectiveResult("broadcast", nodes, rounds=1)
        final = (root - 1) % nodes
        taps = tuple((root + offset) % nodes for offset in range(1, nodes - 1))
        ring.submit(Message(self._next_id, root, final,
                            data_flits=data_flits,
                            extra_destinations=taps))
        self._next_id += 1
        ring.drain(max_ticks=2_000_000)
        result.round_ticks.append(ring.sim.now)
        result.total_ticks = ring.sim.now
        result.messages = 1
        return result

    def barrier(self) -> CollectiveResult:
        """A zero-payload token circulates the whole ring once."""
        nodes = self.config.nodes
        ring = self._fresh_ring()
        result = CollectiveResult("barrier", nodes, rounds=nodes)
        for hop in range(nodes):
            source = hop % nodes
            destination = (hop + 1) % nodes
            elapsed = self._send_round(ring, [(source, destination)], 0)
            result.round_ticks.append(elapsed)
            result.messages += 1
        result.total_ticks = sum(result.round_ticks)
        return result


RunnableCollective = Callable[[CollectiveDriver], CollectiveResult]

#: Catalogue used by the example and the benchmark.
STANDARD_COLLECTIVES: dict[str, RunnableCollective] = {
    "ring-shift": lambda driver: driver.ring_shift_round(1, 32),
    "allreduce": lambda driver: driver.ring_allreduce(16),
    "all-to-all": lambda driver: driver.all_to_all(8),
    "broadcast": lambda driver: driver.broadcast(0, 64),
    "barrier": lambda driver: driver.barrier(),
}
