"""E20 — Section 1's deferred extension: multicast on virtual buses.

"Whilst the RMB concept can also be extended to support broadcasting and
multicasting, these issues are also not addressed in this paper."  This
benchmark implements and measures that extension: tap destinations
reserve a receive port as the header passes and read the same flit
stream, so one virtual bus serves the whole receiver set.

Sweep: fan-out m ∈ {1, 2, 4, 7} receivers spread over a half-ring, long
payloads.  Compared against the same fan-out done as m serial unicasts
from the same source (the only alternative on an unextended RMB).
Expected shape: multicast time is nearly flat in m (one circuit, one
payload transmission) while serial unicast grows linearly.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_series, render_table
from repro.core import Message, RMBConfig, RMBRing

NODES = 16
LANES = 3
FLITS = 64


def receiver_set(fan_out):
    """Receivers spread evenly across the half ring after node 0."""
    stride = max(1, 8 // fan_out)
    receivers = [1 + stride * index for index in range(fan_out)]
    return receivers[:-1], receivers[-1]


def run_multicast(fan_out):
    taps, final = receiver_set(fan_out)
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0),
                   seed=3)
    ring.submit(Message(0, NODES - 1, final, data_flits=FLITS,
                        extra_destinations=tuple(taps)))
    return ring.drain(max_ticks=1_000_000)


def run_serial_unicast(fan_out):
    taps, final = receiver_set(fan_out)
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0),
                   seed=3)
    for index, destination in enumerate(taps + [final]):
        ring.submit(Message(index, NODES - 1, destination,
                            data_flits=FLITS))
    return ring.drain(max_ticks=1_000_000)


def run_sweep():
    rows = []
    for fan_out in (1, 2, 4, 7):
        multicast = run_multicast(fan_out)
        unicast = run_serial_unicast(fan_out)
        rows.append({
            "receivers": fan_out,
            "multicast (1 bus)": multicast,
            "serial unicast": unicast,
            "speedup": round(unicast / multicast, 2),
        })
    return rows


def test_e20_multicast(benchmark):
    rows = benchmark(run_sweep)
    text = render_table(
        rows,
        title=(f"E20  Multicast extension, N={NODES}, k={LANES}, "
               f"{FLITS}-flit payload"),
    )
    text += "\n\n" + render_series(
        "serial-unicast / multicast time",
        [row["receivers"] for row in rows],
        [row["speedup"] for row in rows],
        x_label="receivers", y_label="speedup",
    )
    report("E20_multicast", text)
    by_fanout = {row["receivers"]: row for row in rows}
    # Fan-out 1 degenerates to unicast: identical times.
    assert by_fanout[1]["speedup"] == 1.0
    # Speedup grows with fan-out and is substantial at 7 receivers.
    assert by_fanout[7]["speedup"] > 3.0
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    # Multicast time is nearly flat in m: within 40% of the unicast base.
    assert by_fanout[7]["multicast (1 bus)"] < \
        by_fanout[1]["multicast (1 bus)"] * 1.4
