"""Kernel microbenchmarks: raw event throughput of the simulation core.

Three scenarios isolate the costs every simulated tick pays:

* ``queue_push_pop`` — the event heap alone (ordering comparisons);
* ``schedule_run`` — one-shot callbacks through ``Simulator.run``;
* ``periodic_ticks`` — self-rescheduling ``Periodic`` machinery (the
  flit/cycle tick engines are exactly this).

Emits ``BENCH_kernel.json``.  Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_kernel.py
"""

from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from perf_common import emit, time_scenario  # noqa: E402

from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.kernel import Simulator, every  # noqa: E402

QUEUE_OPS = 120_000
ONE_SHOTS = 100_000
PERIODICS = 64
PERIODIC_HORIZON = 1_500.0


def _noop() -> None:
    return None


def queue_push_pop() -> int:
    queue = EventQueue()
    for index in range(QUEUE_OPS):
        # Interleaved times exercise real heap sifts, not append-only runs.
        queue.push(float(index % 977), _noop)
    drained = 0
    while queue:
        queue.pop()
        drained += 1
    return QUEUE_OPS + drained


def schedule_run() -> int:
    sim = Simulator()
    for index in range(ONE_SHOTS):
        sim.schedule_at(float(index % 1013), _noop)
    sim.run()
    return ONE_SHOTS


def periodic_ticks() -> int:
    sim = Simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    for index in range(PERIODICS):
        every(sim, 1.0 + (index % 7) * 0.25, tick)
    sim.run(until=PERIODIC_HORIZON)
    return fired[0]


def main() -> None:
    results = {
        "queue_push_pop": time_scenario(queue_push_pop),
        "schedule_run": time_scenario(schedule_run),
        "periodic_ticks": time_scenario(periodic_ticks),
    }
    emit("kernel", results)


if __name__ == "__main__":
    main()
