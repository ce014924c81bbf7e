"""Regenerate the golden span JSONL fixtures.

Two small seeded runs with fully deterministic span output:

* ``spans_sync_small.jsonl`` — a clean synchronous N=8, k=3 run;
* ``spans_fault_small.jsonl`` — the same ring with a segment failure
  (with grace) and a later repair, so the fixture pins down the
  fault/retry span vocabulary too.

``tests/obs/test_golden_spans.py`` rebuilds these runs in memory and
byte-compares against the committed files; after an *intentional* span
format change, rerun::

    PYTHONPATH=src python tests/fixtures/regen_span_fixtures.py

and commit the diff together with the change that caused it.
"""

from __future__ import annotations

import pathlib

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.obs import Observability, spans_jsonl_lines

HERE = pathlib.Path(__file__).resolve().parent

NODES = 8
LANES = 3


def _submit(ring: RMBRing, count: int) -> None:
    ring.submit_all(
        Message(message_id=i, source=i % NODES,
                destination=(i + 2 + i % 3) % NODES,
                data_flits=2 + (i % 4))
        for i in range(count))


def sync_small() -> Observability:
    obs = Observability("full")
    config = RMBConfig(nodes=NODES, lanes=LANES, synchronous=True)
    ring = RMBRing(config, seed=11, probe_period=16.0, obs=obs)
    _submit(ring, 8)
    ring.run(60.0)
    ring.drain()
    return obs


def fault_small() -> Observability:
    plan = FaultPlan(events=[
        FaultEvent(time=10.0, kind=FaultKind.SEGMENT, action="fail",
                   segment=2, lane=2, grace=4.0),
        FaultEvent(time=34.0, kind=FaultKind.SEGMENT, action="repair",
                   segment=2, lane=2),
    ])
    obs = Observability("full")
    config = RMBConfig(nodes=NODES, lanes=LANES,
                       retry=RetryPolicy(jitter=0.25, max_retries=6))
    ring = RMBRing(config, seed=5, probe_period=16.0, fault_plan=plan,
                   obs=obs)
    _submit(ring, 10)
    ring.run(90.0)
    ring.drain()
    return obs


FIXTURES = {
    "spans_sync_small.jsonl": sync_small,
    "spans_fault_small.jsonl": fault_small,
}


def render(name: str) -> str:
    """The fixture's exact file content (trailing newline included)."""
    lines = spans_jsonl_lines(FIXTURES[name]().spans)
    return "\n".join(lines) + "\n"


def main() -> None:
    for name in FIXTURES:
        path = HERE / name
        path.write_text(render(name), encoding="utf-8")
        print(f"wrote {path} ({len(path.read_text().splitlines())} events)")


if __name__ == "__main__":
    main()
