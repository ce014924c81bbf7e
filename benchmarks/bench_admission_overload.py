"""E27 — supervised execution: admission control under a saturating burst.

The paper sizes the RMB for steady permutation traffic; it says nothing
about what the INC should do when every node dumps a burst far beyond
the ring's carrying capacity at once.  The supervision layer (DESIGN.md
section 8) answers with per-INC admission control: a cap on each node's
outstanding work, enforced either by *deferring* the excess (held at the
INC, released as slots free up) or by *shedding* it (refused outright).

This experiment offers an 8-messages-per-node burst to an N=16, k=4 ring
at t=0 and compares an uncapped INC against defer/shed caps of 6 and 3,
with the watchdog armed throughout.

Claims checked: the cap is a hard bound on per-node outstanding work
(peak_outstanding <= limit, vs 8 uncapped); defer still delivers every
message; shed trades completion for a shorter tail (its p95 latency is
below the uncapped run's because only the head of each node's burst
enters the network); and the watchdog stays quiet — overload alone,
handled by admission, is not a livelock.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.sim import RandomStream

NODES, LANES = 16, 4
BURST = 8  # messages per node, offered simultaneously at t=0
POINTS = (
    ("uncapped", None, "defer"),
    ("defer-6", 6, "defer"),
    ("defer-3", 3, "defer"),
    ("shed-6", 6, "shed"),
    ("shed-3", 3, "shed"),
)


def run_overload_point(label: str, limit, policy: str, seed: int = 11) -> dict:
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       admission_limit=limit, admission_policy=policy,
                       retry=RetryPolicy(delay=8.0))
    ring = RMBRing(config, seed=seed, watchdog=True)
    rng = RandomStream(seed, name="burst")
    messages = []
    for node in range(NODES):
        for slot in range(BURST):
            offset = rng.randint(1, NODES // 2)
            messages.append(Message(node * BURST + slot, node,
                                    (node + offset) % NODES, data_flits=8))
    ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    stats = ring.stats()
    summary = stats.summary()
    admission = ring.routing.admission
    return {
        "label": label,
        "limit": limit,
        "policy": policy,
        "completed": stats.completed,
        "completion_rate": stats.completion_rate,
        "shed": stats.shed,
        "deferrals": stats.deferrals,
        "peak_outstanding": admission.peak_outstanding,
        "p95_latency": summary["p95_latency"],
        "mean_latency": summary["mean_latency"],
        "nacks": stats.nacks,
        "incidents": summary["incidents"],
        "forced_teardowns": stats.forced_teardowns,
        "duration": summary["duration"],
    }


def run_overload_sweep() -> list[dict]:
    return [run_overload_point(label, limit, policy)
            for label, limit, policy in POINTS]


def test_e27_admission_overload(benchmark):
    points = benchmark.pedantic(run_overload_sweep, rounds=1, iterations=1)
    offered = NODES * BURST
    rows = [{
        "config": p["label"],
        "completed": f"{p['completed']}/{offered}",
        "rate": f"{p['completion_rate']:.3f}",
        "shed": p["shed"],
        "deferred": p["deferrals"],
        "peak_out": p["peak_outstanding"],
        "p95_lat": f"{p['p95_latency']:.1f}",
        "nacks": p["nacks"],
        "incidents": int(p["incidents"]),
        "dur": f"{p['duration']:.0f}",
    } for p in points]
    text = render_table(
        rows,
        title=(f"E27  admission control under overload, N={NODES} k={LANES}, "
               f"burst of {BURST} msgs/node at t=0, watchdog armed"),
    )
    report("E27_admission_overload", text)

    by_label = {p["label"]: p for p in points}
    uncapped = by_label["uncapped"]
    # Without a cap, the whole burst piles up inside each INC (the peak
    # is sampled at decision time, before the last admit lands).
    assert uncapped["peak_outstanding"] == BURST - 1
    assert uncapped["completion_rate"] == 1.0
    for label, limit, policy in POINTS:
        point = by_label[label]
        # ...while any cap is a hard bound on per-node outstanding work.
        if limit is not None:
            assert point["peak_outstanding"] <= limit, point
        # Deferral reshapes the burst without losing any of it.
        if policy == "defer":
            assert point["completion_rate"] == 1.0, point
            assert point["shed"] == 0
        # Overload handled by admission never looks like a livelock.
        assert point["incidents"] == 0, point
        assert point["forced_teardowns"] == 0, point
    for label in ("shed-6", "shed-3"):
        point = by_label[label]
        # Shedding refuses the tail of each burst: what remains is the
        # head, which clears faster than the uncapped pile-up.
        assert point["shed"] > 0
        assert point["completed"] + point["shed"] == offered
        assert point["p95_latency"] < uncapped["p95_latency"], point
    # Tighter caps shed more.
    assert by_label["shed-3"]["shed"] > by_label["shed-6"]["shed"]


def test_e27_overload_point_is_reproducible():
    first = run_overload_point("defer-3", 3, "defer")
    second = run_overload_point("defer-3", 3, "defer")
    assert first == second
