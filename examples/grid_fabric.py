"""A 2-D grid of RMB rings — the paper's closing future-work direction,
running.

Every row and column of a processor grid is its own RMB ring.  The grid
is a ``(rows, cols)`` :class:`~repro.hier.RMBLattice`, routed dimension
by dimension: a message first rides its column ring to the destination
row, turns (store-and-forward through the turning node's PE), and then
rides that row's ring to the destination column.

Usage:
    python examples/grid_fabric.py [rows] [cols] [lanes]
"""

from __future__ import annotations

import sys

from repro.analysis import render_table
from repro.core import Message
from repro.hier import RMBLattice
from repro.sim import RandomStream


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    cols = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    lanes = int(sys.argv[3]) if len(sys.argv) > 3 else 2

    grid = RMBLattice((rows, cols), lanes=lanes)
    rng = RandomStream(5)
    nodes = grid.nodes
    count = nodes * 2
    for index in range(count):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        grid.submit(Message(index, source, destination, data_flits=16,
                            created_at=grid.sim.now))

    makespan = grid.drain()
    stats = grid.stats()
    single = [journey for journey in grid.journeys.values()
              if len(journey.plan) == 1]
    turn_waits = [journey.trail[1].submitted_at - journey.message.created_at
                  for journey in grid.journeys.values()
                  if len(journey.plan) == 2]

    print(f"{rows}x{cols} grid of RMB rings (k={lanes}, {len(grid.rings)} "
          f"rings): {stats.completed}/{count} journeys completed in "
          f"{makespan:.0f} ticks\n")
    rows_out = [
        {"metric": "mean journey latency", "value": round(stats.latency.mean, 1)},
        {"metric": "max journey latency", "value": stats.latency.maximum},
        {"metric": "single-leg journeys (same row/column)",
         "value": len(single)},
        {"metric": "two-leg journeys (column then row)",
         "value": len(turn_waits)},
        {"metric": "mean wait before the turn",
         "value": round(sum(turn_waits) / max(1, len(turn_waits)), 1)},
    ]
    print(render_table(rows_out, title="Grid fabric summary"))

    busiest = max(grid.rings.values(),
                  key=lambda ring: ring.routing.completed)
    print(f"\nbusiest ring: {busiest.name} carried "
          f"{busiest.routing.completed} legs, "
          f"{busiest.compaction.stats.moves} compaction moves")


if __name__ == "__main__":
    main()
