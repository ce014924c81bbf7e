"""Structured trace recording for simulations.

Tracing is opt-in: a ring records only the kinds its caller names.  The
readers are the benchmarks that reproduce the paper's figures from a
trace (E2's injection lanes, E3's compaction moves), the golden trace
fixtures, and tests asserting temporal properties (e.g. "the top lane
was released within two cycles of the header leaving").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class TraceEntry:
    """One recorded occurrence: a time, a kind tag, a subject, and details."""

    time: float
    kind: str
    subject: str
    details: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.details:
            if name == key:
                return value
        return default

    def __str__(self) -> str:  # compact human-readable line
        detail = " ".join(f"{k}={v}" for k, v in self.details)
        return f"[{self.time:>8.1f}] {self.kind:<18} {self.subject} {detail}".rstrip()


class TraceRecorder:
    """Accumulates :class:`TraceEntry` rows, optionally filtered by kind.

    Args:
        kinds: the kinds retained (others are dropped at record time);
            ``None`` retains every kind.  A ring passes its
            ``trace_kinds``, which is empty unless its caller reads the
            trace.

    :attr:`enabled` is False when the kind filter is the empty set — the
    recorder can never retain anything, so hot paths check this one flag
    and skip building the record's arguments entirely (no f-strings, no
    kwargs dict, no call).

    A recorded row is four list slots until someone reads it:
    :meth:`record` appends its time, kind, subject and the caller's fresh
    ``details`` dict to four columns and builds no per-row object, so a
    run whose details are plain scalars allocates nothing the garbage
    collector tracks.  Every reader first builds the pending rows, in
    record order, into :class:`TraceEntry` values, and so does pickling:
    a snapshot's bytes do not depend on whether the trace was read.
    """

    def __init__(self, kinds: Optional[AbstractSet[str]] = None) -> None:
        self.kinds = kinds
        self._rows: list[TraceEntry] = []
        self._times: list[float] = []
        self._tags: list[str] = []
        self._subjects: list[str] = []
        self._details: list[dict[str, Any]] = []

    @property
    def enabled(self) -> bool:
        """True unless the kind filter rejects every possible entry."""
        return self.kinds is None or len(self.kinds) > 0

    def record(self, time: float, kind: str, subject: str, **details: Any) -> None:
        """Append an entry unless its kind is filtered out."""
        if self.kinds is not None and kind not in self.kinds:
            return
        self._times.append(time)
        self._tags.append(kind)
        self._subjects.append(subject)
        self._details.append(details)

    @property
    def entries(self) -> list[TraceEntry]:
        """Every retained entry, in record order."""
        self._build_pending()
        return self._rows

    def _build_pending(self) -> None:
        if self._times:
            columns = (self._times, self._tags, self._subjects, self._details)
            self._rows.extend(map(_entry, *columns))
            for column in columns:
                column.clear()

    def __getstate__(self) -> dict[str, Any]:
        self._build_pending()
        return self.__dict__

    def __len__(self) -> int:
        return len(self._rows) + len(self._times)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def of_kind(self, kind: str) -> list[TraceEntry]:
        """All entries with the given kind tag, in time order."""
        return [entry for entry in self.entries if entry.kind == kind]

    def matching(self, predicate: Callable[[TraceEntry], bool]) -> list[TraceEntry]:
        """All entries satisfying ``predicate``, in time order."""
        return [entry for entry in self.entries if predicate(entry)]

    def first(self, kind: str) -> Optional[TraceEntry]:
        """Earliest entry of ``kind``, or ``None``."""
        for entry in self.entries:
            if entry.kind == kind:
                return entry
        return None

    def last(self, kind: str) -> Optional[TraceEntry]:
        """Latest entry of ``kind``, or ``None``."""
        for entry in reversed(self.entries):
            if entry.kind == kind:
                return entry
        return None

    def between(self, start: float, end: float) -> list[TraceEntry]:
        """Entries with ``start <= time < end``."""
        return [e for e in self.entries if start <= e.time < end]

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable multi-line dump (most recent ``limit`` rows)."""
        rows = self.entries if limit is None else self.entries[-limit:]
        return "\n".join(str(row) for row in rows)


def _entry(time: float, kind: str, subject: str,
           details: dict[str, Any]) -> TraceEntry:
    return TraceEntry(time, kind, subject, tuple(sorted(details.items())))
