"""Regenerate the two-ring differential golden files.

One fixed-seed :class:`~repro.hier.TwoRingRMB` scenario — two
submission waves mixing clockwise, counter-clockwise, tie-break and
multicast traffic, with mid-run lifecycle census capture — whose outputs
are committed byte-for-byte under ``tests/fixtures/two_ring_golden/``:

* ``summary.json`` — the run's ``stats().summary()`` plus drain timing;
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
    cw = format_census(network.clockwise.routing.lifecycle_census())
    ccw = format_census(network.counterclockwise.routing.lifecycle_census())
    return f"{label} t={network.sim.now:.1f} cw[{cw}] ccw[{ccw}]"


def _record_lines(network: TwoRingRMB) -> list[str]:
    lines = []
    for name, ring in (("cw", network.clockwise),
                       ("ccw", network.counterclockwise)):
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


def build_outputs() -> dict[str, str]:
    network = TwoRingRMB(
        RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0), seed=SEED)
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
    summary = {key: value for key, value in
               sorted(network.stats().summary().items())}
    summary["drain_elapsed"] = elapsed
    summary["final_time"] = network.sim.now
    return {
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
        "records.txt": "\n".join(_record_lines(network)) + "\n",
        "census.txt": "\n".join(census) + "\n",
        "trace_cw.txt": network.clockwise.trace.render() + "\n",
        "trace_ccw.txt": network.counterclockwise.trace.render() + "\n",
    }


def main() -> None:
    target = HERE / "two_ring_golden"
    target.mkdir(exist_ok=True)
    for filename, text in build_outputs().items():
        (target / filename).write_text(text, encoding="utf-8")
        print(f"wrote {target / filename}")


if __name__ == "__main__":
    main()
