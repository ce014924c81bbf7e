"""Unit tests for the trace recorder."""

from repro.sim import TraceRecorder
from repro.sim.trace import TraceEntry


def test_record_and_query():
    trace = TraceRecorder()
    trace.record(1.0, "inject", "msg0", lane=3)
    trace.record(2.0, "extend", "msg0", segment=1)
    trace.record(3.0, "inject", "msg1", lane=3)
    assert len(trace) == 3
    assert [entry.subject for entry in trace.of_kind("inject")] == \
        ["msg0", "msg1"]


def test_kind_filter_drops_at_record_time():
    trace = TraceRecorder(kinds={"inject"})
    trace.record(1.0, "inject", "a")
    trace.record(2.0, "extend", "b")
    assert len(trace) == 1


def test_first_and_last():
    trace = TraceRecorder()
    assert trace.first("x") is None
    assert trace.last("x") is None
    trace.record(1.0, "x", "a")
    trace.record(2.0, "y", "b")
    trace.record(3.0, "x", "c")
    assert trace.first("x").subject == "a"
    assert trace.last("x").subject == "c"


def test_between_half_open():
    trace = TraceRecorder()
    for time in [0.0, 1.0, 2.0, 3.0]:
        trace.record(time, "t", "s")
    window = trace.between(1.0, 3.0)
    assert [entry.time for entry in window] == [1.0, 2.0]


def test_matching_predicate():
    trace = TraceRecorder()
    trace.record(1.0, "move", "bus0", lane_from=2)
    trace.record(2.0, "move", "bus1", lane_from=1)
    hits = trace.matching(lambda entry: entry.get("lane_from") == 1)
    assert len(hits) == 1
    assert hits[0].subject == "bus1"


def test_entry_get_default():
    entry = TraceEntry(1.0, "k", "s", (("a", 1),))
    assert entry.get("a") == 1
    assert entry.get("missing", "fallback") == "fallback"


def test_render_is_readable():
    trace = TraceRecorder()
    trace.record(1.5, "inject", "msg0", lane=2)
    text = trace.render()
    assert "inject" in text
    assert "msg0" in text
    assert "lane=2" in text


def test_render_limit():
    trace = TraceRecorder()
    for index in range(5):
        trace.record(float(index), "t", f"s{index}")
    text = trace.render(limit=2)
    assert "s3" in text and "s4" in text
    assert "s0" not in text
