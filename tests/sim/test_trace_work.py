"""Work gates: a trace costs nothing unless its caller asks for one.

A recorded row is four list slots until someone reads it (DESIGN.md §9
P1): its time, kind, subject and the caller's ``details`` dict.  CPython
does not track a dict that holds only scalars, so 10,000 three-detail
rows add no object the garbage collector walks.  The eager recorder
built a frozen ``TraceEntry``, a details tuple and one tuple per detail
for every row: 50,000 tracked objects for the same rows.

Tracing is opt-in: a ring or fabric built without ``trace_kinds``
records nothing, and every hot recording site tests one flag cached at
construction, so such a ring never calls its recorder.  When every ring
recorded every kind by default, ``hier_local`` benchmark job 14 filled
its member traces with 73,331 rows that nothing read.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.hier import HierRMB, TwoRingRMB
from repro.sim import TraceRecorder


def test_recording_adds_no_tracked_object():
    trace = TraceRecorder()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for index in range(10_000):
            trace.record(float(index), "compaction_move", f"bus{index}",
                         segment=index, lane_from=2, lane_to=1)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added == 0
    assert len(trace) == 10_000
    assert trace.last("compaction_move").details == (
        ("lane_from", 2), ("lane_to", 1), ("segment", 9_999))


def _recorded_kinds(monkeypatch) -> list[str]:
    kinds: list[str] = []
    monkeypatch.setattr(
        TraceRecorder, "record",
        lambda self, time, kind, subject, **details: kinds.append(kind))
    return kinds


@pytest.mark.parametrize("synchronous", [True, False])
def test_a_recorder_filtered_to_nothing_is_never_called(synchronous,
                                                       monkeypatch):
    kinds = _recorded_kinds(monkeypatch)
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, synchronous=synchronous),
                   seed=1)
    for index in range(16):
        ring.submit(Message(index, index % 8, (index + 3) % 8, data_flits=24))
    ring.drain()
    assert ring.compaction.stats.moves > 0
    assert kinds == []


@pytest.mark.parametrize("build", [
    lambda: TwoRingRMB(RMBConfig(nodes=8, lanes=4), seed=1),
    lambda: HierRMB(locals=4, nodes_per_local=4, lanes=4, seed=1),
], ids=["two-ring", "hier"])
def test_a_fabric_built_without_kinds_never_calls_its_recorders(
        build, monkeypatch):
    kinds = _recorded_kinds(monkeypatch)
    fabric = build()
    nodes = fabric.nodes
    for index in range(2 * nodes):
        fabric.submit(Message(index, index % nodes,
                              (index + 3) % nodes, data_flits=24))
    fabric.drain()
    assert sum(ring.compaction.stats.moves
               for ring in fabric.rings.values()) > 0
    assert kinds == []
