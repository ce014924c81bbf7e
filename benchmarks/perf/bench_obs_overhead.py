"""Observability overhead benchmark: the E28 load sweep at every obs level.

Runs the exact ``bench_end2end`` workload (N=64, k=4, Bernoulli traffic,
optimized operating point) four times:

* ``obs_none``    — no Observability object at all (the pre-obs tree);
* ``obs_off``     — an ``Observability("off")`` bundle attached (pull
  collectors registered, every push site compiled out by ``_obs_on``);
* ``obs_sampled`` — spans for 1-in-8 messages plus all push metrics;
* ``obs_full``    — spans and histogram observations for every message.

The interesting numbers are the ratios: ``obs_off`` must sit within
noise of ``obs_none`` (the one-branch discipline's promise), and
``obs_full`` bounds the worst-case cost of turning everything on.

Emits ``BENCH_obs_overhead.json``.  Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_obs_overhead.py
"""

from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from perf_common import emit, instrument_events, time_scenario  # noqa: E402

from repro.core import RMBConfig, RMBRing  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.sim import RandomStream  # noqa: E402
from repro.traffic import bernoulli_schedule, replay_on_ring  # noqa: E402

NODES = 64
LANES = 4
FLITS = 8
DURATION = 400
RATE = 0.02
SEED = 7


def _run_ring(level: str | None) -> int:
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0)
    obs = Observability(level) if level is not None else None
    ring = RMBRing(config, seed=SEED, trace_kinds=set(),
                   probe_period=16.0, check_level="sampled", obs=obs)
    events = instrument_events(ring.sim)
    rng = RandomStream(SEED, name="perf")
    schedule = bernoulli_schedule(NODES, DURATION, RATE, FLITS, rng)
    replay_on_ring(ring, schedule)
    ring.run(DURATION)
    ring.drain(max_ticks=2_000_000)
    return events()


def main() -> None:
    results = {
        "obs_none": time_scenario(lambda: _run_ring(None)),
        "obs_off": time_scenario(lambda: _run_ring("off")),
        "obs_sampled": time_scenario(lambda: _run_ring("sampled")),
        "obs_full": time_scenario(lambda: _run_ring("full")),
    }
    base = results["obs_none"]["ops_per_sec"]
    overhead = {
        name: round(100.0 * (base - row["ops_per_sec"]) / base, 2)
        for name, row in results.items() if base > 0
    }
    emit("obs_overhead", results, extra={
        "scenario": {"nodes": NODES, "lanes": LANES, "flits": FLITS,
                     "duration_ticks": DURATION, "rate": RATE, "seed": SEED},
        "overhead_pct_vs_none": overhead,
        "metric_note": "ops_per_sec is kernel events per wall second",
    })
    for name, pct in overhead.items():
        print(f"  overhead {name:<12} {pct:+.2f}% vs obs_none")


if __name__ == "__main__":
    main()
