"""Property test: checkpoint/restore is bit-exact under any interruption.

For arbitrary seeds, fault plans, and checkpoint times, interrupting a
run with a snapshot and finishing it from the restored copy must yield
*byte-identical* results — same final simulation time, same statistics
summary, same complete trace, same grid state, same RNG stream states —
as the run that was never interrupted.  This is the supervision layer's
central determinism contract (ISSUE PR 2, acceptance criterion 2).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes

NODES = 8
LANES = 3
HORIZON = 90.0


@st.composite
def fault_plans(draw):
    """None, or 1-2 segment failures (each optionally repaired)."""
    if not draw(st.booleans()):
        return None
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        segment = draw(st.integers(min_value=0, max_value=NODES - 1))
        lane = draw(st.integers(min_value=0, max_value=LANES - 1))
        fail_at = float(draw(st.integers(min_value=5, max_value=60)))
        events.append(FaultEvent(time=fail_at, kind=FaultKind.SEGMENT,
                                 action="fail", segment=segment, lane=lane,
                                 grace=4.0))
        if draw(st.booleans()):
            events.append(FaultEvent(time=fail_at + 20.0,
                                     kind=FaultKind.SEGMENT,
                                     action="repair", segment=segment,
                                     lane=lane))
    return FaultPlan(events=events)


def build_ring(seed: int, plan: FaultPlan | None) -> RMBRing:
    config = RMBConfig(nodes=NODES, lanes=LANES,
                       admission_limit=3, admission_policy="defer",
                       retry=RetryPolicy(
                           jitter=0.25,
                           max_retries=8 if plan is not None else None))
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan,
                   watchdog=True, trace_kinds=None)
    ring.submit_all(
        Message(message_id=i, source=(i + seed) % NODES,
                destination=(i + seed + 2 + i % 3) % NODES,
                data_flits=2 + (i % 5))
        for i in range(10)
    )
    return ring


def finish(ring: RMBRing) -> None:
    ring.sim.run(until=HORIZON)
    ring.drain(max_ticks=2_000)


def observables(ring: RMBRing) -> tuple:
    return (
        ring.sim.now,
        ring.stats().summary(),
        ring.trace.entries,
        ring.grid.state_signature(),
        ring.seeds.stream("retry").getstate(),
        sorted(ring.routing.records),
        {mid: record.completed_at
         for mid, record in ring.routing.records.items()},
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       checkpoint_at=st.integers(min_value=1, max_value=85))
def test_interrupted_run_is_byte_identical(seed, plan, checkpoint_at):
    reference = build_ring(seed, plan)
    finish(reference)

    interrupted = build_ring(seed, plan)
    interrupted.sim.run(until=float(checkpoint_at))
    snapshot = save_snapshot_bytes(interrupted)
    restored, _ = load_snapshot_bytes(snapshot)
    finish(restored)

    assert reference.trace.entries
    assert observables(restored) == observables(reference)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       first=st.integers(min_value=1, max_value=40),
       second=st.integers(min_value=45, max_value=85))
def test_double_interruption_is_byte_identical(seed, plan, first, second):
    """Snapshot of a restored run is as good as a snapshot of the original."""
    reference = build_ring(seed, plan)
    finish(reference)

    ring = build_ring(seed, plan)
    ring.sim.run(until=float(first))
    ring, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
    ring.sim.run(until=float(second))
    ring, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
    finish(ring)

    assert reference.trace.entries
    assert observables(ring) == observables(reference)
