"""E18 — Section 2.1: one ring vs two parallel unidirectional rings.

Paper remark: "for efficiency reasons, one may like to organise the
communication as two parallel unidirectional rings."  At an equal total
lane budget (k one-way vs k/2 per direction), the two-ring layout halves
the worst-case span.  The sweep shows both sides of the trade: traffic
with counter-clockwise locality (neighbour exchange) speeds up by an
order of magnitude, while clockwise-heavy traffic at just under half a
ring (tornado) only pays for the split lane budget.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.hier import TwoRingRMB
from repro.sim import RandomStream
from repro.traffic import generate

NODES = 16
LANES = 4
FLITS = 16


def messages_for(family, rng):
    perm = generate(family, NODES, rng)
    return [Message(index, source, destination, data_flits=FLITS)
            for index, (source, destination) in enumerate(
                (i, perm[i]) for i in range(NODES) if perm[i] != i)]


def run_pair(family, rng):
    messages = messages_for(family, rng)
    single = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0),
                     seed=2)
    single.submit_all([Message(m.message_id, m.source, m.destination,
                               data_flits=m.data_flits) for m in messages])
    single_makespan = single.drain(max_ticks=1_000_000)

    double = TwoRingRMB(RMBConfig(nodes=NODES, lanes=LANES,
                                  cycle_period=2.0))
    double.submit_all(messages)
    double_makespan = double.drain(max_ticks=1_000_000)
    return {
        "family": family,
        "1 ring x 4 lanes": single_makespan,
        "2 rings x 2 lanes": double_makespan,
        "two-ring speedup": round(single_makespan / double_makespan, 2),
    }


def run_sweep():
    rng = RandomStream(51)
    return [run_pair(family, rng)
            for family in ("neighbor", "random", "bit-reversal", "tornado")]


def test_e18_two_rings(benchmark):
    rows = benchmark(run_sweep)
    text = render_table(
        rows,
        title=(f"E18  One-way ring vs two unidirectional rings, N={NODES}, "
               "equal lane budget"),
    )
    report("E18_two_rings", text)
    by_family = {row["family"]: row for row in rows}
    # Neighbour exchange is the two-ring sweet spot: half its messages
    # span N-1 clockwise but a single hop counter-clockwise.
    assert by_family["neighbor"]["two-ring speedup"] > 2.0
    # Tornado (span N/2-1) stays clockwise on both layouts, so the
    # two-ring variant only loses lanes there — the honest trade-off.
    assert by_family["tornado"]["two-ring speedup"] < 1.0
    assert all(row["2 rings x 2 lanes"] > 0 for row in rows)
