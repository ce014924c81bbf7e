"""The column recorder keeps exactly what the eager recorder kept.

:class:`EagerRecorder` below is the recorder before rows were kept as
columns: every ``record`` built its :class:`TraceEntry` at once.
Hypothesis drives it and a :class:`TraceRecorder` with the same rows
under random kind filters, interleaving every reader, ``len`` calls and
pickle round trips, and requires equal entries and ``len`` throughout.
A third recorder takes the same rows but is never read: its pickle must
be byte-identical to the read one's, so a snapshot's bytes do not
depend on whether the trace was read first.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceEntry, TraceRecorder

KINDS = ("inject", "extend", "compaction_move")


class EagerRecorder:
    """The reference: one ``TraceEntry`` built per ``record`` call."""

    def __init__(self, kinds: Optional[set[str]]) -> None:
        self.kinds = kinds
        self.entries: list[TraceEntry] = []

    def record(self, time: float, kind: str, subject: str,
               **details: Any) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.entries.append(
            TraceEntry(time, kind, subject, tuple(sorted(details.items())))
        )


def _has_lane(entry: TraceEntry) -> bool:
    return entry.get("lane") is not None


#: Each reader on the recorder, and what it must return over the
#: reference's rows.
READERS = {
    "entries": (lambda t: t.entries, lambda rows: rows),
    "iter": (list, list),
    "of_kind": (lambda t: t.of_kind("inject"),
                lambda rows: [e for e in rows if e.kind == "inject"]),
    "first": (lambda t: t.first("extend"),
              lambda rows: next((e for e in rows if e.kind == "extend"),
                                None)),
    "last": (lambda t: t.last("extend"),
             lambda rows: next((e for e in reversed(rows)
                                if e.kind == "extend"), None)),
    "between": (lambda t: t.between(10.0, 30.0),
                lambda rows: [e for e in rows if 10.0 <= e.time < 30.0]),
    "matching": (lambda t: t.matching(_has_lane),
                 lambda rows: [e for e in rows if _has_lane(e)]),
    "render": (lambda t: t.render(limit=3),
               lambda rows: "\n".join(str(e) for e in rows[-3:])),
}

details = st.dictionaries(
    st.sampled_from(("bus", "lane", "segment", "cycle")),
    st.one_of(st.integers(-3, 300), st.booleans(), st.none(),
              st.floats(allow_nan=False), st.text(max_size=3)),
    max_size=4,
)
rows = st.tuples(st.integers(0, 40).map(float), st.sampled_from(KINDS),
                 st.sampled_from(("bus0", "bus1", "msg2")), details)
operations = st.lists(st.one_of(
    rows.map(lambda row: ("record", row)),
    st.sampled_from(sorted(READERS)).map(lambda name: ("read", name)),
    st.just(("len", None)),
    st.just(("pickle", None)),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(kinds=st.one_of(st.none(), st.sets(st.sampled_from(KINDS))),
       operations=operations)
def test_columns_match_the_eager_recorder(kinds, operations):
    eager = EagerRecorder(kinds)
    columns = TraceRecorder(kinds=kinds)
    unread = TraceRecorder(kinds=kinds)
    for operation, argument in operations:
        if operation == "record":
            time, kind, subject, row_details = argument
            for recorder in (eager, columns, unread):
                recorder.record(time, kind, subject, **row_details)
        elif operation == "read":
            read, expected = READERS[argument]
            assert read(columns) == expected(eager.entries)
        elif operation == "len":
            assert len(columns) == len(eager.entries)
        else:
            snapshot = pickle.dumps(columns)
            assert snapshot == pickle.dumps(unread)
            columns = pickle.loads(snapshot)
            unread = pickle.loads(snapshot)
    assert len(columns) == len(eager.entries)
    assert columns.entries == eager.entries
    assert pickle.dumps(columns) == pickle.dumps(unread)
