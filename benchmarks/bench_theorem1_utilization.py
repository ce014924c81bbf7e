"""E8 — Theorem 1: full utilisation of the multiple bus system.

Paper claim: "a request for communication is provided if a bus segment is
available between the sending and receiving nodes in the clockwise
direction", and existing transactions are maintained correctly.  Two
measurements:

* admission — random k-permutations whose ring load fits within the k
  lanes establish *all* their circuits concurrently, with zero Nacks and
  zero header timeouts;
* saturation — at offered loads beyond capacity, every message still
  completes (liveness) and measured lane utilisation approaches the
  offline segment-load bound.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.sim import RandomStream
from repro.traffic import bounded_load_pairs, max_ring_load


def admission_trial(nodes, k, rng, flits=40):
    pairs = bounded_load_pairs(nodes, k, rng)
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=k, cycle_period=2.0),
                   seed=rng.randint(0, 2**30))
    messages = [Message(i, s, d, data_flits=flits)
                for i, (s, d) in enumerate(pairs)]
    ring.submit_all(messages)
    # Generous setup window: headers + compaction + acks.
    ring.run(nodes * 6)
    concurrent = ring.routing.live_bus_count()
    established = ring.routing.established
    ring.drain(max_ticks=500_000)
    return {
        "load": max_ring_load(pairs, nodes),
        "messages": len(pairs),
        "concurrent": concurrent,
        "established": established,
        "nacks": ring.stats().nacks,
        "timeouts": ring.routing.timed_out,
    }


def run_admission(nodes=16, k=4, trials=10):
    rng = RandomStream(21)
    outcomes = [admission_trial(nodes, k, rng) for _ in range(trials)]
    return outcomes


def run_saturation(nodes=16, k=4, messages=96, flits=16):
    rng = RandomStream(22)
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=k, cycle_period=2.0),
                   seed=9, probe_period=8.0)
    for index in range(messages):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        ring.submit(Message(index, source, destination, data_flits=flits))
    ring.drain(max_ticks=2_000_000)
    stats = ring.stats()
    return {
        "completed": stats.completed,
        "offered": stats.offered,
        "mean_utilization": stats.mean_utilization(),
        "peak_live_buses": stats.peak_live_buses(),
    }


def test_e8_theorem1(benchmark):
    admission = benchmark(run_admission)
    saturation = run_saturation()
    rows = [
        {
            "trial": index,
            "messages": outcome["messages"],
            "peak ring load": outcome["load"],
            "circuits established": outcome["established"],
            "nacks": outcome["nacks"],
            "timeouts": outcome["timeouts"],
        }
        for index, outcome in enumerate(admission)
    ]
    rows.append({
        "trial": "saturation",
        "messages": saturation["offered"],
        "peak ring load": "-",
        "circuits established": saturation["completed"],
        "nacks": "-",
        "timeouts": "-",
    })
    text = render_table(
        rows,
        title="E8  Theorem 1: admission within capacity and saturation liveness",
    )
    report("E8_theorem1_utilization", text)
    for outcome in admission:
        assert outcome["nacks"] == 0, outcome
        assert outcome["timeouts"] == 0, outcome
        assert outcome["established"] == outcome["messages"], (
            "every in-capacity circuit must establish concurrently"
        )
    assert saturation["completed"] == saturation["offered"], \
        "liveness: every message completes even beyond capacity"
