"""Hierarchy benchmark: local-pattern throughput and latency by scale.

The hierarchical fabric's selling point is *locality isolation*: traffic
that stays within a local ring only ever contends with that ring's own
``n`` nodes, so mean latency for a local pattern should stay roughly
flat as the total node count ``m * n`` grows.  A flat RMB ring covering
the same nodes with the same lane budget runs the identical pattern
with every message contending for one shared segment pool, so its
latency climbs with scale.

The workload is one standing-start round of intra-ring neighbour shift:
every fabric node ``(L, i)`` sends to ``(L, (i+1) mod n)``.  Each row's
``ops_per_sec`` is what the name says: completed messages per wall
second (build, submit and drain; best of ``PERF_REPEATS``), so it is
machine-dependent and informational, never gated.  The deterministic
simulation facts — mean end-to-end latency in ticks (journey-level for
the fabric) at each scale — live in the ``latency_by_scale`` block,
where the scaling shape shows (hier roughly flat, flat ring growing).

Emits ``BENCH_hier.json``.  Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_hier.py
"""

from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from perf_common import emit, time_scenario  # noqa: E402

from repro.core import Message, RMBConfig, RMBRing  # noqa: E402
from repro.core.stats import RunStats  # noqa: E402
from repro.hier import HierRMB  # noqa: E402

LANES = 4
FLITS = 8
SEED = 7

#: (locals, nodes_per_local) scales: 16 -> 128 total nodes.
SCALES = ((4, 4), (4, 8), (8, 8), (8, 16))


def local_shift(locals_count: int, per_local: int) -> list[Message]:
    """One intra-ring neighbour-shift round over the whole fabric."""
    messages = []
    for local in range(locals_count):
        base = local * per_local
        for index in range(per_local):
            messages.append(Message(
                message_id=base + index,
                source=base + index,
                destination=base + (index + 1) % per_local,
                data_flits=FLITS))
    return messages


def hier_run(locals_count: int, per_local: int) -> RunStats:
    """Journey-level stats of one local-shift round on the fabric."""
    network = HierRMB(locals=locals_count, nodes_per_local=per_local,
                      lanes=LANES, seed=SEED)
    network.submit_all(local_shift(locals_count, per_local))
    network.drain(max_ticks=2_000_000)
    return network.journey_run_stats()


def flat_run(locals_count: int, per_local: int) -> RunStats:
    """Stats of the same round on one flat ring over all the nodes."""
    nodes = locals_count * per_local
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=LANES), seed=SEED,
                   trace_kinds=set())
    ring.submit_all(local_shift(locals_count, per_local))
    ring.drain(max_ticks=2_000_000)
    return ring.stats()


def main() -> None:
    results: dict[str, dict[str, float]] = {}
    shape = []
    for locals_count, per_local in SCALES:
        nodes = locals_count * per_local
        row = {"scale": f"{locals_count}x{per_local}", "nodes": nodes}
        for label, run in (("hier", hier_run), ("flat", flat_run)):
            # Deterministic simulation fact (lower is better).
            latency = run(locals_count, per_local).latency.mean
            row[f"{label}_mean_latency"] = round(latency, 4)
            results[f"local_{label}_{locals_count}x{per_local}"] = \
                time_scenario(lambda run=run: int(
                    run(locals_count, per_local).completed))
        shape.append(row)
    emit("hier", results, extra={
        "note": ("ops_per_sec is completed messages per wall second for "
                 "one intra-ring neighbour-shift round (build, submit and "
                 "drain; best of PERF_REPEATS), informational only.  The "
                 "deterministic mean end-to-end latency in ticks is in "
                 "latency_by_scale: hier stays roughly flat with total N "
                 "while the flat ring climbs"),
        "geometry": {"lanes": LANES, "data_flits": FLITS, "seed": SEED,
                     "scales": [f"{m}x{n}" for m, n in SCALES]},
        "latency_by_scale": shape,
    })


if __name__ == "__main__":
    main()
