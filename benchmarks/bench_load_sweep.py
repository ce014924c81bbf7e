"""E25 — the canonical interconnect figure the paper never drew:
latency vs offered load, with the lane count k as the family parameter.

The 1996 paper evaluates capability analytically; every successor paper
would have plotted this curve.  Offered load sweeps from light to past
saturation (uniform random Bernoulli traffic); we report mean and p95
delivery latency, throughput, and the analytic unloaded-latency floor
from :mod:`repro.analysis.latency_model` for calibration.

Expected shape: classic hockey sticks — flat near the unloaded floor,
then a knee; the knee moves right proportionally to k (the ring's
capacity is k lanes x N segments), which is experiment E13's capacity
bound seen from the queueing side.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.latency_model import unloaded_latency
from repro.analysis.tables import render_table
from repro.core import RMBConfig, RMBRing
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring

NODES = 16
FLITS = 8
DURATION = 600


def run_point(lanes: int, rate: float):
    rng = RandomStream(int(rate * 10_000) * 31 + lanes)
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=lanes, cycle_period=2.0),
                   seed=lanes, probe_period=16.0)
    schedule = bernoulli_schedule(NODES, DURATION, rate, FLITS, rng)
    replay_on_ring(ring, schedule)
    ring.run(DURATION)
    ring.drain(max_ticks=2_000_000)
    stats = ring.stats()
    return {
        "k": lanes,
        # A string, so the table prints 0.002 rather than rounding it.
        "offered (msgs/node/tick)": str(rate),
        "mean latency": round(stats.latency.mean, 1),
        "p95 latency": round(stats.latency_percentile(0.95), 1),
        "throughput (flits/tick)": round(stats.throughput_flits_per_tick, 2),
        "utilization": round(stats.mean_utilization(), 3),
        "nacks": stats.nacks,
    }


def run_sweep():
    rows = []
    for lanes in (2, 4, 8):
        for rate in (0.002, 0.005, 0.01, 0.02, 0.04):
            rows.append(run_point(lanes, rate))
    return rows


def test_e25_load_sweep(benchmark):
    rows = benchmark(run_sweep)
    # The analytic floor: mean span of uniform traffic is ~N/2.
    floor = unloaded_latency(NODES // 2, FLITS).delivery
    text = render_table(
        rows,
        title=(f"E25  Latency vs offered load, N={NODES}, {FLITS}-flit "
               f"messages (unloaded analytic floor at mean span: "
               f"{floor:.0f} ticks)"),
    )
    report("E25_load_sweep", text)

    by_point = {(row["k"], float(row["offered (msgs/node/tick)"])): row
                for row in rows}
    # Light load sits near the analytic floor for every k.
    for lanes in (2, 4, 8):
        light = by_point[(lanes, 0.002)]["mean latency"]
        assert floor * 0.5 < light < floor * 2.5, (lanes, light, floor)
    # Latency is monotone (weakly) in offered load at fixed k.
    for lanes in (2, 4, 8):
        curve = [by_point[(lanes, rate)]["mean latency"]
                 for rate in (0.002, 0.01, 0.04)]
        assert curve[0] <= curve[1] * 1.2 and curve[1] <= curve[2] * 1.2
    # More lanes strictly help at the heaviest load.
    assert by_point[(8, 0.04)]["mean latency"] < \
        by_point[(2, 0.04)]["mean latency"]
