"""E26 — graceful degradation: delivery under increasing segment failures.

The paper's ring is sold on incremental scalability; a multiple-bus
network should also degrade *gracefully* when lanes break, because a k=4
ring with one dead lane is structurally a healthy k=3 ring plus stubs.
This experiment sweeps the fraction of randomly failed lane-segments from
0 to 30% on an N=16, k=4 ring under fixed offered traffic and reports the
delivered fraction, fault teardown activity, and residual throughput.

Claim checked: no delivery cliff — with k >= 3 the completion rate stays
well above zero (here: >= 60% of messages) for failure fractions up to
20%, and degradation is monotone-ish rather than catastrophic, because
insertion falls back to lower lanes, established buses evacuate dying
segments, and Nacked sources retry around the outage window.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.faults import FaultPlan
from repro.sim import RandomStream

NODES, LANES = 16, 4
MESSAGES = 96
FRACTIONS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def run_sweep_point(fraction: float, seed: int = 7) -> dict:
    plan = FaultPlan.random(
        NODES, LANES, fraction=fraction, at=20.0,
        rng=RandomStream(seed, name=f"sweep-{fraction}"),
        grace=8.0, spread=60.0,
    )
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       retry=RetryPolicy(delay=8.0, max_retries=6))
    ring = RMBRing(config, seed=seed, fault_plan=plan, probe_period=16.0)
    rng = RandomStream(seed, name="traffic")
    for index in range(MESSAGES):
        source = rng.randint(0, NODES - 1)
        offset = rng.randint(1, NODES // 2)
        message = Message(index, source, (source + offset) % NODES,
                          data_flits=12, created_at=float(index * 4))
        ring.sim.schedule_at(message.created_at,
                             lambda m=message: ring.submit(m))
    ring.run(MESSAGES * 4 + 1)
    ring.drain(max_ticks=500_000)
    stats = ring.stats()
    return {
        "fraction": fraction,
        "failed_segments": ring.grid.faulty_count(),
        "completed": stats.completed,
        "completion_rate": stats.completion_rate,
        "abandoned": stats.abandoned,
        "fault_kills": stats.fault_kills,
        "fault_nacks": stats.fault_nacks,
        "rerouted": stats.rerouted,
        "evacuations": ring.compaction.stats.evacuations,
        "mean_recovery": stats.recovery.mean,
        "throughput": stats.throughput_flits_per_tick,
    }


def run_sweep() -> list[dict]:
    return [run_sweep_point(fraction) for fraction in FRACTIONS]


def test_e26_fault_sweep(benchmark):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [{
        "fail_frac": f"{p['fraction']:.2f}",
        "dead_segs": p["failed_segments"],
        "completed": f"{p['completed']}/{MESSAGES}",
        "rate": f"{p['completion_rate']:.3f}",
        "abandoned": p["abandoned"],
        "kills": p["fault_kills"],
        "f_nacks": p["fault_nacks"],
        "rerouted": p["rerouted"],
        "evac": p["evacuations"],
        "recover": f"{p['mean_recovery']:.1f}",
        "tput": f"{p['throughput']:.3f}",
    } for p in points]
    text = render_table(
        rows,
        title=(f"E26  graceful degradation sweep, N={NODES} k={LANES}, "
               f"{MESSAGES} messages, random segment outages at t=20..80"),
    )
    report("E26_fault_sweep", text)

    by_fraction = {p["fraction"]: p for p in points}
    # Healthy baseline delivers everything.
    assert by_fraction[0.0]["completion_rate"] == 1.0
    # Graceful, not catastrophic: up to 20% failed segments the ring still
    # delivers a solid majority of the offered traffic (no cliff to zero).
    for fraction in FRACTIONS:
        if fraction <= 0.20:
            assert by_fraction[fraction]["completion_rate"] >= 0.60, (
                f"delivery cliff at fraction {fraction}: "
                f"{by_fraction[fraction]}"
            )
    # The degraded points actually exercised the fault machinery.
    assert any(p["fault_kills"] + p["fault_nacks"] > 0
               for p in points if p["fraction"] > 0)


def test_e26_sweep_point_is_reproducible():
    first = run_sweep_point(0.15)
    second = run_sweep_point(0.15)
    assert first == second
