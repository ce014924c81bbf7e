"""Regenerate the two-ring differential golden files.

One fixed-seed :class:`~repro.hier.TwoRingRMB` scenario — two
submission waves mixing clockwise, counter-clockwise, tie-break and
multicast traffic, with mid-run lifecycle census capture — whose outputs
are committed byte-for-byte under ``tests/fixtures/two_ring_golden/``:

* ``summary.json`` — the pooled leg aggregate's ``summary()`` (every
  ``cw`` record, then every ``ccw`` record, with the fabric's probe
  series and duration) plus drain timing;
* ``records.txt`` — every per-ring message record (timestamps, counters,
  lanes visited, tap deliveries);
* ``census.txt`` — lifecycle census strings sampled mid-run and after
  the drain;
* ``trace_cw.txt`` / ``trace_ccw.txt`` — the full trace of each ring.

``tests/hier/test_two_ring_differential.py`` rebuilds the identical run
and byte-compares, pinning the ``TwoRingRMB``-as-``RingFabric`` refactor
to the pre-refactor behaviour.  These files were generated *before* the
fabric refactor; regenerating them is only legitimate for an intentional
behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_two_ring_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.routing import format_census
from repro.core.stats import RunStats
from repro.hier import TwoRingRMB

HERE = pathlib.Path(__file__).resolve().parent

NODES = 16
LANES = 4
SEED = 3

#: (message_id, source, destination, data_flits, extra_destinations)
WAVE_ONE = (
    (0, 0, 3, 6, ()),       # clockwise, short span
    (1, 0, 13, 6, ()),      # counter-clockwise (cw span 13)
    (2, 2, 9, 4, ()),       # clockwise span 7
    (3, 9, 2, 4, ()),       # counter-clockwise span 7
    (4, 5, 13, 8, ()),      # span 8 both ways: tie goes clockwise
    (5, 2, 15, 6, (0,)),    # counter-clockwise multicast with one tap
    (6, 4, 8, 2, ()),       # clockwise
    (7, 12, 2, 10, ()),     # clockwise span 6
)

WAVE_TWO = (
    (8, 1, 14, 6, ()),      # counter-clockwise span 13
    (9, 14, 1, 6, ()),      # clockwise span 3
    (10, 6, 11, 4, ()),     # clockwise
    (11, 11, 6, 4, ()),     # counter-clockwise
)


def _submit(network: TwoRingRMB, wave) -> None:
    now = network.sim.now
    for message_id, source, destination, flits, taps in wave:
        network.submit(Message(
            message_id=message_id, source=source, destination=destination,
            data_flits=flits, created_at=now,
            extra_destinations=tuple(taps)))


def _census_line(network: TwoRingRMB, label: str) -> str:
    cw = format_census(network.rings["cw"].routing.lifecycle_census())
    ccw = format_census(network.rings["ccw"].routing.lifecycle_census())
    return f"{label} t={network.sim.now:.1f} cw[{cw}] ccw[{ccw}]"


def _record_lines(network: TwoRingRMB) -> list[str]:
    lines = []
    for name, ring in network.rings.items():
        for message_id in sorted(ring.routing.records):
            record = ring.routing.records[message_id]
            taps = " ".join(
                f"{node}@{time:.1f}" for node, time in
                sorted(record.tap_delivered_at.items()))
            lines.append(
                f"{name} msg{message_id} "
                f"{record.message.source}->{record.message.destination} "
                f"flits={record.message.data_flits} "
                f"injected={record.injected_at} "
                f"established={record.established_at} "
                f"delivered={record.delivered_at} "
                f"completed={record.completed_at} "
                f"nacks={record.nacks} retries={record.retries} "
                f"stalls={record.head_stall_ticks} "
                f"lanes={sorted(record.lanes_visited)} "
                f"taps=[{taps}]")
    return lines


def pooled_leg_stats(network: TwoRingRMB) -> RunStats:
    """One row per leg record: ``cw``'s records, then ``ccw``'s."""
    records = []
    for ring in network.rings.values():
        ring.routing.settle_stalls()
        records.extend(ring.routing.records.values())
    return RunStats.from_records(
        records, duration=network.sim.now,
        utilization=network.utilization, live_buses=network.live_buses)


def run_scenario() -> tuple[TwoRingRMB, list[str], float]:
    """The drained run, its census lines and its drain time."""
    network = TwoRingRMB(
        RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0), seed=SEED,
        trace_kinds=None)
    census = []
    _submit(network, WAVE_ONE)
    network.run(10.0)
    census.append(_census_line(network, "wave1+10"))
    network.run(30.0)
    census.append(_census_line(network, "wave1+40"))
    _submit(network, WAVE_TWO)
    network.run(10.0)
    census.append(_census_line(network, "wave2+10"))
    elapsed = network.drain()
    census.append(_census_line(network, "drained"))
    return network, census, elapsed


def build_outputs() -> dict[str, str]:
    network, census, elapsed = run_scenario()
    summary = {key: value for key, value in
               sorted(pooled_leg_stats(network).summary().items())}
    summary["drain_elapsed"] = elapsed
    summary["final_time"] = network.sim.now
    return {
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
        "records.txt": "\n".join(_record_lines(network)) + "\n",
        "census.txt": "\n".join(census) + "\n",
        "trace_cw.txt": network.rings["cw"].trace.render() + "\n",
        "trace_ccw.txt": network.rings["ccw"].trace.render() + "\n",
    }


def main() -> None:
    target = HERE / "two_ring_golden"
    target.mkdir(exist_ok=True)
    for filename, text in build_outputs().items():
        (target / filename).write_text(text, encoding="utf-8")
        print(f"wrote {target / filename}")


if __name__ == "__main__":
    main()
