"""Work gates: recording a trace allocates nothing the collector tracks.

A recorded row is four list slots until someone reads it (DESIGN.md §9
P1): its time, kind, subject and the caller's ``details`` dict.  CPython
does not track a dict that holds only scalars, so 10,000 three-detail
rows add no object the garbage collector walks.  The eager recorder
built a frozen ``TraceEntry``, a details tuple and one tuple per detail
for every row: 50,000 tracked objects for the same rows.

Every hot recording site also tests one flag cached at construction, so
a ring built with ``trace_kinds=set()`` never calls its recorder: the
eager compaction engine and cycle controllers built an f-string and a
kwargs dict and made the call for every move and handshake step.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import Message, RMBConfig, RMBRing
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


@pytest.mark.parametrize("synchronous", [True, False])
def test_a_recorder_filtered_to_nothing_is_never_called(synchronous,
                                                       monkeypatch):
    kinds: list[str] = []
    monkeypatch.setattr(
        TraceRecorder, "record",
        lambda self, time, kind, subject, **details: kinds.append(kind))
    ring = RMBRing(RMBConfig(nodes=8, lanes=3, synchronous=synchronous),
                   seed=1, trace_kinds=set())
    for index in range(16):
        ring.submit(Message(index, index % 8, (index + 3) % 8, data_flits=24))
    ring.drain()
    assert ring.compaction.stats.moves > 0
    assert kinds == []
