"""E23 — Section 2.3's fairness worry, measured.

"This restriction has the potential of causing long delays for header
flits and being unfair in providing network access to different PEs.
These drawbacks are alleviated by allowing the compaction process to
start even before any acknowledgement."

Workload: every node streams messages across a long transfer's shadow —
one node pair holds a long-running circuit crossing half the ring while
all other nodes issue short messages.  We report Jain's fairness index of
per-node injection waits, compaction on vs off.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.apps import jain_index, per_node_waits
from repro.core import Message, RMBConfig, RMBRing

NODES = 16
LANES = 4


def run_point(compaction_enabled: bool):
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       compaction_enabled=compaction_enabled)
    ring = RMBRing(config, seed=9)
    # A long transfer crossing half the ring on the top lane.
    ring.submit(Message(0, 0, NODES // 2, data_flits=600))
    ring.run(8)
    # Every node (shadowed or not) issues three short messages.
    message_id = 1
    for wave in range(3):
        for node in range(NODES):
            ring.sim.schedule_at(
                8.0 + wave * 40.0 + node,
                (lambda m: (lambda: ring.submit(m)))(Message(
                    message_id, node, (node + 2) % NODES, data_flits=6,
                    created_at=8.0 + wave * 40.0 + node,
                )),
            )
            message_id += 1
    ring.run(3 * 40.0 + NODES + 16)
    ring.drain(max_ticks=2_000_000)
    waits = per_node_waits(ring)
    # Node 0's own wait is self-inflicted (its 600-flit transfer holds
    # its TX port); network fairness is about everyone else.
    others = {node: wait for node, wait in waits.items() if node != 0}
    shadowed = [wait for node, wait in others.items()
                if node <= NODES // 2]
    clear = [wait for node, wait in others.items() if node > NODES // 2]
    return {
        "compaction": "on" if compaction_enabled else "off",
        "wait fairness (Jain)": round(jain_index(list(others.values())), 3),
        "mean wait under the long bus": round(
            sum(shadowed) / len(shadowed), 1),
        "mean wait elsewhere": round(sum(clear) / len(clear), 1),
        "worst node wait": round(max(others.values()), 1),
    }


def run_comparison():
    return [run_point(True), run_point(False)]


def test_e23_fairness(benchmark):
    rows = benchmark(run_comparison)
    text = render_table(
        rows,
        title=(f"E23  Access fairness under a long transfer, N={NODES}, "
               f"k={LANES} (Jain index: 1.0 = perfectly fair)"),
    )
    report("E23_fairness", text)
    with_compaction, without_compaction = rows
    # Compaction must make access substantially fairer...
    assert with_compaction["wait fairness (Jain)"] > \
        without_compaction["wait fairness (Jain)"]
    # ...because the nodes under the long bus stop being starved.
    assert with_compaction["mean wait under the long bus"] < \
        without_compaction["mean wait under the long bus"]
    # Nodes outside the long bus's shadow were never the problem.
    assert with_compaction["mean wait elsewhere"] <= \
        without_compaction["mean wait elsewhere"] + 1.0
