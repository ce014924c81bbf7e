"""Golden regression tests for the ASCII renderers.

The grid picture (:func:`repro.core.trace_render.render_grid`) and the
trace dump (:meth:`repro.sim.trace.TraceRecorder.render`) are consumed by
humans and by the examples' documentation; their exact formatting is part
of the contract.  These tests compare byte-exact output of deterministic
scenarios — including the fault glyphs added with the fault layer —
against fixtures committed under ``tests/fixtures/``.

To regenerate after an intentional format change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_golden_render.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core import Message, PortHealth, RMBConfig, RMBRing, SegmentGrid
from repro.core.config import RetryPolicy
from repro.core.trace_render import render_grid, render_ring
from repro.faults import FaultEvent, FaultKind, FaultPlan

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

FAULT_TRACE_KINDS = {
    "fault_dying", "fault_dead", "fault_repair", "fault_kill",
    "fault_nack", "evacuation_move", "inc_drop", "inc_restore",
}


def compare_golden(name: str, actual: str) -> None:
    path = FIXTURES / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {name}")
    expected = path.read_text(encoding="utf-8")
    assert actual + "\n" == expected, (
        f"{name} drifted from its golden fixture; "
        "set REGEN_GOLDEN=1 to regenerate after an intentional change"
    )


def faulty_grid() -> SegmentGrid:
    """A hand-laid grid exercising every cell variety the renderer knows."""
    grid = SegmentGrid(8, 3)
    for segment in range(3):                     # bus 7 along lane 0
        grid.claim(segment, 0, 7)
    for segment in range(4, 7):                  # bus 12 along lane 1
        grid.claim(segment, 1, 12)
    grid.claim(2, 2, 40)                         # lone hop on the top lane
    grid.set_health(5, 2, PortHealth.DEAD)       # dead and free -> X
    grid.set_health(0, 1, PortHealth.DYING)      # dying and free -> x
    grid.set_health(5, 1, PortHealth.DYING)      # dying, occupied -> glyph
    grid.set_health(6, 0, PortHealth.DEAD)       # dead (occupancy hidden)
    return grid


def test_render_grid_with_faults_matches_golden():
    grid = faulty_grid()
    compare_golden("render_grid_faults.txt", render_grid(grid))


def test_render_grid_highlight_matches_golden():
    grid = faulty_grid()
    compare_golden("render_grid_highlight.txt", render_grid(grid, highlight=12))


def deterministic_fault_run() -> RMBRing:
    config = RMBConfig(nodes=8, lanes=3, cycle_period=2.0,
                       retry=RetryPolicy(delay=4.0, jitter=0.0,
                                         max_retries=4))
    plan = FaultPlan((
        FaultEvent(time=24.0, kind=FaultKind.SEGMENT, segment=2, lane=2,
                   grace=8.0),
        FaultEvent(time=40.0, kind=FaultKind.LANE, lane=1, grace=8.0),
        FaultEvent(time=120.0, kind=FaultKind.LANE, action="repair", lane=1),
        FaultEvent(time=60.0, kind=FaultKind.INC, segment=5, grace=8.0),
    ))
    ring = RMBRing(config, seed=11, fault_plan=plan,
                   trace_kinds=FAULT_TRACE_KINDS)
    # Stagger submissions so live buses overlap every fault window.
    for index in range(14):
        source = (index * 3) % 8
        message = Message(index, source, (source + 3) % 8, data_flits=24,
                          created_at=index * 10.0)
        ring.sim.schedule_at(
            message.created_at,
            lambda m=message: ring.submit(m),
        )
    ring.run(200.0)
    ring.drain(max_ticks=100_000)
    return ring


def test_fault_trace_render_matches_golden():
    ring = deterministic_fault_run()
    compare_golden("fault_trace.txt", ring.trace.render())


def test_fault_ring_snapshot_matches_golden():
    ring = deterministic_fault_run()
    compare_golden("fault_ring_snapshot.txt", render_ring(ring))
