"""E17 — Section 2.3 ablation: what compaction buys.

Paper: restricting insertions to the top bus "has the potential of causing
long delays for header flits and being unfair in providing network access
to different PEs.  These drawbacks are alleviated by allowing the
compaction process to start even before any acknowledgement ... the top
bus is released as soon as possible".

Workload: staggered single-destination streams at moderate load — the
regime the remark addresses.  A sender can inject only once the top lane
at its column is free; without compaction that means waiting for a
predecessor's full teardown.  Ablation axes: compaction on/off, and the
odd/even cycle period (compaction speed).

A deliberately reported nuance: under *saturation* (everything submitted
at t=0) compaction admits more concurrent partial circuits, which raises
receiver-conflict Nacks and retry backoff — admission control via a busy
top lane can then win.  The saturated row is included for honesty.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.sim import RandomStream

NODES = 16
LANES = 4
MESSAGES = 48
FLITS = 40
SPAN = 5
GAP = 6.0


def staggered_workload(ring):
    """One message every GAP ticks, round-robin sources, span-5 circuits."""
    for index in range(MESSAGES):
        source = index % NODES
        message = Message(index, source, (source + SPAN) % NODES,
                          data_flits=FLITS, created_at=index * GAP)
        ring.sim.schedule_at(index * GAP,
                             (lambda m: (lambda: ring.submit(m)))(message))


def saturated_workload(ring):
    rng = RandomStream(41)
    for index in range(MESSAGES):
        source = rng.randint(0, NODES - 1)
        destination = (source + rng.randint(1, NODES - 1)) % NODES
        ring.submit(Message(index, source, destination, data_flits=24))


def run_point(compaction_enabled: bool, cycle_period: float,
              saturated: bool = False):
    config = RMBConfig(nodes=NODES, lanes=LANES,
                       cycle_period=cycle_period,
                       compaction_enabled=compaction_enabled)
    ring = RMBRing(config, seed=8)
    if saturated:
        saturated_workload(ring)
    else:
        staggered_workload(ring)
        ring.run(MESSAGES * GAP)
    makespan = ring.drain(max_ticks=2_000_000)
    records = list(ring.routing.records.values())
    injection_waits = [record.injected_at - record.message.created_at
                       for record in records
                       if record.injected_at is not None]
    stats = ring.stats()
    return {
        "workload": "saturated" if saturated else "staggered",
        "compaction": "on" if compaction_enabled else "off",
        "cycle period": cycle_period,
        "makespan": ring.sim.now if not saturated else makespan,
        "mean latency": round(stats.latency.mean, 1),
        "mean injection wait": round(
            sum(injection_waits) / len(injection_waits), 1),
        "max injection wait": max(injection_waits),
        "nacks": stats.nacks,
        "compaction moves": ring.compaction.stats.moves,
    }


def run_ablation():
    rows = [run_point(False, 2.0)]
    for cycle_period in (1.0, 2.0, 4.0, 8.0, 16.0):
        rows.append(run_point(True, cycle_period))
    # Honesty rows: the saturated regime, where admission control wins.
    rows.append(run_point(False, 2.0, saturated=True))
    rows.append(run_point(True, 2.0, saturated=True))
    return rows


def test_e17_compaction_ablation(benchmark):
    rows = benchmark(run_ablation)
    text = render_table(
        rows,
        title=(f"E17  Compaction ablation, N={NODES}, k={LANES}, "
               f"{MESSAGES} messages"),
    )
    report("E17_ablation_compaction", text)

    off = rows[0]
    on_rows = [row for row in rows
               if row["compaction"] == "on" and row["workload"] == "staggered"]
    fastest = on_rows[0]
    assert off["compaction moves"] == 0
    assert fastest["compaction moves"] > 0
    # The paper's claim, in its regime: compaction slashes injection wait.
    assert fastest["mean injection wait"] < off["mean injection wait"] / 2
    assert fastest["max injection wait"] < off["max injection wait"]
    # And the whole batch finishes sooner.
    assert fastest["makespan"] <= off["makespan"]
