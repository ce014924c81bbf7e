"""E5 — Figure 7: exactly four legal move conditions, and no others.

Paper claim: "there are only four possible scenarios in which this
condition can be satisfied" — the bus enters the upstream INC straight or
from below, and leaves the downstream INC straight or below.  We classify
every compaction move committed under randomised traffic and assert the
observed condition set is a subset of (and substantially covers) the four.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.core.status import ALL_CONDITIONS
from repro.sim import RandomStream


def run_condition_census(nodes=16, lanes=5, messages=64):
    rng = RandomStream(11)
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=lanes, cycle_period=2.0),
                   seed=4)
    for index in range(messages):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        ring.submit(Message(index, source, destination,
                            data_flits=rng.randint(4, 40)))
    ring.drain(max_ticks=1_000_000)
    return dict(ring.compaction.stats.condition_counts)


def test_e5_four_conditions(benchmark):
    counts = benchmark(run_condition_census)
    total = sum(counts.values())
    rows = [
        {
            "condition": condition,
            "moves": counts.get(condition, 0),
            "share": f"{counts.get(condition, 0) / total:.1%}",
        }
        for condition in ALL_CONDITIONS
    ]
    text = render_table(
        rows,
        title="E5  Figure 7: census of move conditions under random traffic",
    )
    report("E5_move_conditions", text)
    # No move may fall outside Figure 7's four conditions.
    assert set(counts) <= set(ALL_CONDITIONS)
    # The workload exercises at least three of the four (the double-below
    # corner is rare but the dominant ones must appear).
    assert len(counts) >= 3
    assert counts.get("upstream-straight/downstream-straight", 0) > 0
