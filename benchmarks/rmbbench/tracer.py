"""In-memory span tracer for the traced pass of the benchmark.

The tracer times layer boundaries from the outside: :meth:`Tracer.install`
replaces a fixed list of simulator methods with timing wrappers on their
*classes*, so it must run before any ring is built (``every(...)`` and
``GlobalCycleDriver`` capture bound methods at construction), and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/``
is edited.

Spans nest through a stack.  Each ``(span, parent)`` pair aggregates a
call count, total seconds and self seconds, where a span's self time is
its duration minus the durations of the spans it directly encloses.  The
self times of all spans therefore add up to the time the root spans
cover, which is how the benchmark checks the tracer's own arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, class, method, span)`` for every wrapped layer boundary.
#: The batch backend's phases reuse the event backend's layer names where
#: they are the vectorized twin of the same step (the tick loop is the
#: ``sim`` layer, ``_flit_tick`` is the routing tick, ...).
LAYER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim"),
    ("repro.core.routing", "RoutingEngine", "flit_tick", "routing.flit_tick"),
    ("repro.core.routing", "RoutingEngine", "submit", "routing.submit"),
    ("repro.core.compaction", "CompactionEngine", "global_pass", "compaction"),
    ("repro.core.invariants", "InvariantMonitor", "check", "invariants"),
    ("repro.core.network", "RMBRing", "_sample_probes", "probes"),
    ("repro.hier.fabric", "RingFabric", "_sample_probes", "probes"),
    ("repro.hier.fabric", "RingFabric", "_leg_completed", "hier.leg_completed"),
    ("repro.hier.fabric", "RingFabric", "_inject_next_leg", "hier.inject_leg"),
    ("repro.batch.engine", "BatchRing", "_run_until", "sim"),
    ("repro.batch.engine", "BatchRing", "_flit_tick", "routing.flit_tick"),
    ("repro.batch.engine", "BatchRing", "_submit", "routing.submit"),
    ("repro.batch.engine", "BatchRing", "_global_pass", "compaction"),
    ("repro.batch.engine", "BatchRing", "_sample_probes", "probes"),
    ("repro.batch.engine", "BatchRing", "_advance_headers", "batch.headers"),
    ("repro.batch.engine", "BatchRing", "_advance_signals", "batch.signals"),
    ("repro.batch.engine", "BatchRing", "_admit", "batch.admit"),
    ("repro.batch.engine", "BatchRing", "_passive_skip", "batch.passive"),
    ("repro.batch.engine", "BatchRing", "_bulk_passive", "batch.passive"),
    ("repro.batch.engine", "BatchRing", "_move_legal", "batch.move_legal"),
)

#: Marker attribute on installed wrappers (guards double installation).
_MARK = "__rmbbench_span__"


class Tracer:
    """Aggregates nested spans as ``(span, parent) -> [count, total, self]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.table: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: Seconds spent inside each span name, counted at its outermost
        #: level only, so indirect recursion is not double counted.
        self.outer: Dict[str, float] = {}
        #: Open spans: ``[name, start, seconds covered by child spans]``.
        self._stack: List[List[Any]] = []
        self._depth: Dict[str, int] = {}
        self._originals: List[Tuple[type, str, Any]] = []

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        stack = self._stack
        parent = stack[-1] if stack else None
        key = (name, parent[0] if parent is not None else None)
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        if parent is not None:
            parent[2] += duration
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.outer[name] = self.outer.get(name, 0.0) + duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` timed as span ``name`` (a plain function, so it
        binds as a method when stored on a class)."""
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        setattr(traced, _MARK, name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every method in :data:`LAYER_METHODS` with this tracer."""
        for module_name, class_name, method, name in LAYER_METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            if hasattr(original, _MARK):
                self.uninstall()
                raise RuntimeError(
                    f"{class_name}.{method} is already traced; uninstall "
                    f"the other tracer first")
            self._originals.append((owner, method, original))
            setattr(owner, method, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore the original methods, newest first."""
        while self._originals:
            owner, method, original = self._originals.pop()
            setattr(owner, method, original)

    # -- aggregate views ---------------------------------------------------

    def count(self, name: str) -> int:
        return int(sum(row[0] for (span, _), row in self.table.items()
                       if span == name))

    def total(self, name: str) -> float:
        return self.outer.get(name, 0.0)

    def self_time(self, name: str) -> float:
        return sum(row[2] for (span, _), row in self.table.items()
                   if span == name)

    def self_sum(self) -> float:
        return sum(row[2] for row in self.table.values())

    def rows(self) -> List[Dict[str, Any]]:
        """The span table, heaviest self time first (``trace.json``)."""
        rows = [
            {"span": span, "parent": parent, "count": int(row[0]),
             "total_s": row[1], "self_s": row[2]}
            for (span, parent), row in self.table.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows


class NullTracer:
    """The untraced pass: each benchmark-side span is a no-op."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
