"""End-to-end benchmark: the E25-style load sweep at N=64, k=4.

This is the acceptance scenario for the hot-path performance work: a
full ring (routing + compaction + probes) under uniform Bernoulli
traffic, measured in *kernel events per wall second*.  Two rows are
reported:

* ``load_sweep`` — the optimized operating point (tracing disabled,
  ``check_level="sampled"``);
* ``load_sweep_full_checks`` — the same workload with the invariant
  monitor at full strength, isolating the checker's share of the cost.

With ``--backend batch`` the same workload replays through the
vectorized batch backend (``repro.batch``) instead of the event heap.
The work numerator stays backend-comparable: the batch engine reports
``equivalent_events("sampled")`` — the heap events an event-backend
twin executes to reach the same simulated time — so the two ops/sec
figures divide the identical job by each backend's wall time.

Emits ``BENCH_end2end.json`` (event) or ``BENCH_batch.json`` (batch).
Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_end2end.py
    PYTHONPATH=src python benchmarks/perf/bench_end2end.py --backend batch
"""

from __future__ import annotations

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from perf_common import emit, instrument_events, obs_bundle, scrape, \
    time_scenario  # noqa: E402

from repro.core import RMBConfig, RMBRing  # noqa: E402
from repro.sim import RandomStream  # noqa: E402
from repro.traffic import bernoulli_schedule, replay_on_ring  # noqa: E402

NODES = 64
LANES = 4
FLITS = 8
DURATION = 400
RATE = 0.02
SEED = 7

_LAST: dict[str, float] = {}


def _run_ring(check_level: str) -> int:
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0)
    # An off-level bundle: its pull collectors scrape final counts at
    # export time only, so the timed region is untouched while the
    # numbers below come through the metrics registry.
    obs = obs_bundle("off")
    ring = RMBRing(config, seed=SEED, trace_kinds=set(),
                   probe_period=16.0, check_level=check_level, obs=obs)
    events = instrument_events(ring.sim)
    rng = RandomStream(SEED, name="perf")
    schedule = bernoulli_schedule(NODES, DURATION, RATE, FLITS, rng)
    replay_on_ring(ring, schedule)
    ring.run(DURATION)
    ring.drain(max_ticks=2_000_000)
    value = scrape(obs)
    _LAST["messages"] = value("rmb_routing_completed")
    _LAST["flits"] = value("rmb_routing_flits_delivered")
    _LAST["sim_ticks"] = value("rmb_kernel_time_ticks")
    return events()


def _run_batch() -> int:
    from repro.batch import BatchRing, replay_on_batch

    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0)
    ring = BatchRing(config, seed=SEED, probe_period=16.0)
    rng = RandomStream(SEED, name="perf")
    schedule = bernoulli_schedule(NODES, DURATION, RATE, FLITS, rng)
    replay_on_batch(ring, schedule)
    ring.run(DURATION)
    ring.drain(max_ticks=2_000_000)
    stats = ring.stats()
    _LAST["messages"] = float(stats.completed)
    _LAST["flits"] = float(stats.flits_delivered)
    _LAST["sim_ticks"] = float(ring.now)
    return ring.equivalent_events("sampled")


def load_sweep() -> int:
    return _run_ring("sampled")


def load_sweep_full_checks() -> int:
    return _run_ring("full")


def batch_load_sweep() -> int:
    return _run_batch()


def _scenario_block() -> dict[str, float]:
    return {
        "nodes": NODES, "lanes": LANES, "flits": FLITS,
        "duration_ticks": DURATION, "rate": RATE, "seed": SEED,
        "messages_completed": _LAST.get("messages", 0.0),
        "flits_delivered": _LAST.get("flits", 0.0),
        "sim_ticks": _LAST.get("sim_ticks", 0.0),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("event", "batch"),
                        default="event",
                        help="which execution engine to benchmark")
    args = parser.parse_args(argv)
    if args.backend == "batch":
        results = {"load_sweep": time_scenario(batch_load_sweep)}
        emit("batch", results, extra={
            "scenario": _scenario_block(),
            "metric_note": (
                "ops_per_sec is event-backend-equivalent kernel events "
                "per wall second (same workload as end2end/load_sweep; "
                "work = BatchRing.equivalent_events('sampled'))"),
        })
        return
    results = {
        "load_sweep": time_scenario(load_sweep),
        "load_sweep_full_checks": time_scenario(load_sweep_full_checks),
    }
    emit("end2end", results, extra={
        "scenario": _scenario_block(),
        "metric_note": "ops_per_sec is kernel events per wall second",
    })


if __name__ == "__main__":
    main()
