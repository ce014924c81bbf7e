"""E15 — Concluding remark: "an RMB with k buses should not be considered
equivalent of a k bus system.  An RMB with k buses can support many more
than k virtual buses simultaneously.  In the worst case it will support k
virtual buses each of length N."

We sweep message span on a k-lane ring and record the peak number of
concurrently live virtual buses, from N (unit spans: N simultaneous
circuits on one lane) down to k (full-length spans).  A conventional
k-bus system (the multibus baseline) is pinned at k regardless.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_series, render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.traffic import worst_case_virtual_buses

NODES = 16
LANES = 4


def peak_concurrent_buses(span: int, flits: int = 120):
    """Peak number of *complete* virtual buses (header at its destination,
    full path held) alive at once — partial circuits behind stalled
    headers do not count as usable buses."""
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0),
                   seed=6)
    for index in range(NODES):
        ring.submit(Message(index, index, (index + span) % NODES,
                            data_flits=flits))
    peak = 0
    for _ in range(NODES * 10):
        ring.run(2)
        complete = sum(1 for bus in ring.buses.values()
                       if bus.alive and bus.complete)
        peak = max(peak, complete)
    ring.drain(max_ticks=1_000_000)
    return peak


def run_span_sweep():
    return {span: peak_concurrent_buses(span)
            for span in (1, 2, 4, 8, 12, 15)}


def worst_case_point(flits=200):
    """Exactly k full-length (span N-1) messages: the paper's stated worst
    case, which must still hold k concurrent virtual buses."""
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0),
                   seed=6)
    for index, (source, destination) in enumerate(
            worst_case_virtual_buses(NODES, LANES)):
        ring.submit(Message(index, source, destination, data_flits=flits))
    peak = 0
    for _ in range(NODES * 10):
        ring.run(2)
        complete = sum(1 for bus in ring.buses.values()
                       if bus.alive and bus.complete)
        peak = max(peak, complete)
    ring.drain(max_ticks=1_000_000)
    return peak


def test_e15_virtual_bus_count(benchmark):
    peaks = benchmark(run_span_sweep)
    worst_case = worst_case_point()
    rows = [
        {
            "message span": span,
            "segment demand/lane capacity":
                round(span * NODES / (NODES * LANES), 2),
            "peak concurrent virtual buses": peak,
            "k-bus system ceiling": LANES,
        }
        for span, peak in sorted(peaks.items())
    ]
    rows.append({
        "message span": f"{NODES - 1} (exactly k offered)",
        "segment demand/lane capacity": round((NODES - 1) / NODES * 1.0, 2),
        "peak concurrent virtual buses": worst_case,
        "k-bus system ceiling": LANES,
    })
    text = render_table(
        rows,
        title=(f"E15  Concurrent virtual buses on a {LANES}-lane RMB "
               f"(N={NODES}) vs a {LANES}-bus system"),
    )
    text += "\n\n" + render_series(
        "peak concurrent virtual buses vs span",
        [str(span) for span in sorted(peaks)],
        [peaks[span] for span in sorted(peaks)],
        x_label="span", y_label="buses",
    )
    report("E15_virtual_bus_count", text)

    assert peaks[1] == NODES, \
        "unit-span traffic: all N circuits live at once"
    assert peaks[1] > LANES, "far more virtual buses than physical lanes"
    # The paper's worst case: exactly k full-length buses held at once.
    assert worst_case == LANES
    # Concurrency declines monotonically with span under saturation.
    assert all(peaks[a] >= peaks[b] for a, b in [(1, 4), (4, 12), (12, 15)])
