"""Iterative stencil (halo-exchange) workloads on a 2-D lattice of RMB rings.

The classic HPC kernel the paper's motivation implies: every processor
of a 2-D grid updates a tile and exchanges halo rows/columns with its
four neighbours each iteration, with a global synchronisation between
iterations.

On the lattice each exchange is a one-leg ring message: the
clockwise neighbour is one segment away, but the *counter-clockwise*
neighbour costs a full ring transit on a unidirectional ring — the
asymmetry the paper's two-ring remark (Section 2.1) exists to fix.  The
driver therefore reports the two directions separately, quantifying how
much a bidirectional fabric would save on this workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flits import Message
from repro.errors import WorkloadError
from repro.hier.lattice import RMBLattice
from repro.sim.monitor import Tally


@dataclass
class StencilResult:
    """Timing of an iterative halo exchange run."""

    rows: int
    cols: int
    iterations: int
    halo_flits: int
    iteration_ticks: list[float] = field(default_factory=list)
    forward_latency: Tally = field(
        default_factory=lambda: Tally("forward"))
    backward_latency: Tally = field(
        default_factory=lambda: Tally("backward"))

    @property
    def total_ticks(self) -> float:
        return sum(self.iteration_ticks)

    @property
    def mean_iteration(self) -> float:
        if not self.iteration_ticks:
            return 0.0
        return self.total_ticks / len(self.iteration_ticks)

    def asymmetry(self) -> float:
        """Backward/forward mean latency ratio (1.0 on a bidirectional
        fabric; ~N-1 on unidirectional rings)."""
        if self.forward_latency.mean == 0:
            return 0.0
        return self.backward_latency.mean / self.forward_latency.mean

    def as_dict(self) -> dict[str, object]:
        return {
            "grid": f"{self.rows}x{self.cols}",
            "iterations": self.iterations,
            "halo_flits": self.halo_flits,
            "total_ticks": self.total_ticks,
            "mean_iteration": round(self.mean_iteration, 1),
            "fwd_halo_latency": round(self.forward_latency.mean, 1),
            "bwd_halo_latency": round(self.backward_latency.mean, 1),
            "direction_asymmetry": round(self.asymmetry(), 2),
        }


def run_stencil(
    rows: int,
    cols: int,
    lanes: int,
    iterations: int,
    halo_flits: int,
    seed: int = 0,
) -> StencilResult:
    """Run ``iterations`` rounds of 4-neighbour halo exchange.

    Each round submits, for every node, four messages — east and west on
    its row ring, south and north on its column ring — and drains before
    the next round (the global barrier of a bulk-synchronous stencil).
    """
    if iterations < 1:
        raise WorkloadError("need at least one iteration")
    if halo_flits < 0:
        raise WorkloadError("halo_flits must be >= 0")
    lattice = RMBLattice((rows, cols), lanes=lanes, seed=seed)
    result = StencilResult(rows=rows, cols=cols, iterations=iterations,
                           halo_flits=halo_flits)
    message_id = 0
    for _ in range(iterations):
        start = lattice.sim.now
        round_ids: list[tuple[int, bool]] = []
        for row in range(rows):
            for col in range(cols):
                node = lattice.node_id((row, col))
                east = lattice.node_id((row, (col + 1) % cols))
                west = lattice.node_id((row, (col - 1) % cols))
                south = lattice.node_id(((row + 1) % rows, col))
                north = lattice.node_id(((row - 1) % rows, col))
                for neighbour, forward in ((east, True), (west, False),
                                           (south, True), (north, False)):
                    lattice.submit(Message(
                        message_id, node, neighbour, data_flits=halo_flits,
                        created_at=lattice.sim.now))
                    round_ids.append((message_id, forward))
                    message_id += 1
        lattice.drain(max_ticks=4_000_000)
        result.iteration_ticks.append(lattice.sim.now - start)
        for submitted_id, forward in round_ids:
            latency = lattice.journeys[submitted_id].latency()
            if latency is None:  # pragma: no cover - drain guarantees done
                continue
            if forward:
                result.forward_latency.add(latency)
            else:
                result.backward_latency.add(latency)
    return result
