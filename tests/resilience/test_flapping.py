"""Property tests: recovery correctness under adversarial flapping.

Flapping is the nastiest input the fault layer takes: fail/repair cycles
whose period straddles the DYING -> DEAD grace window, so some flaps
repair an announced segment before it dies (cancelling the delayed kill
via the epoch counter) and others let the kill land first.  With the
recovery loop armed on top — breakers re-marking repaired segments,
probes readmitting them — the state machine walks every edge.

Two properties must survive *any* such schedule:

* delivery conservation — every submitted message ends the run finished
  or explicitly abandoned; nothing vanishes, and the grid ends empty;
* structural safety — the final invariant sweep passes and no zombie
  buses outlive the run.

Three to six flaps at most 200 ticks apart put three failures within a
breaker's 400-tick window, so breakers trip, quarantines hold and
probations run within the runs.  Flaps spaced wider than the 256-tick
quarantine land in probation and re-open the breaker with its quarantine
doubled.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.faults import FaultEvent, FaultKind, FaultPlan

NODES, LANES = 8, 3
#: Ticks to run before draining: the last flap repairs by t=1100.
FLAPPING_SPAN = 1_200


@st.composite
def flapping_plans(draw):
    """1-2 flapping segments whose period straddles the grace window.

    With grace drawn from {0, 8, 16} and the repair offset from 2..40,
    examples land on both sides of the DYING -> DEAD boundary — repairs
    that cancel the scheduled kill and repairs that arrive too late.
    Flaps start 6..200 ticks apart: close ones fall inside the first
    quarantine, and the fifth or sixth of wide ones inside probation.
    """
    events = []
    targets = draw(st.integers(min_value=1, max_value=2))
    for _ in range(targets):
        segment = draw(st.integers(min_value=0, max_value=NODES - 1))
        lane = draw(st.integers(min_value=0, max_value=LANES - 1))
        grace = float(draw(st.sampled_from([0, 8, 16])))
        start = float(draw(st.integers(min_value=10, max_value=60)))
        period = float(draw(st.integers(min_value=4, max_value=160)))
        repair_offset = float(draw(st.integers(min_value=2, max_value=40)))
        flaps = draw(st.integers(min_value=3, max_value=6))
        for flap in range(flaps):
            fail_at = start + flap * (period + repair_offset)
            events.append(FaultEvent(
                time=fail_at, kind=FaultKind.SEGMENT,
                segment=segment, lane=lane, grace=grace))
            events.append(FaultEvent(
                time=fail_at + repair_offset, kind=FaultKind.SEGMENT,
                action="repair", segment=segment, lane=lane))
    return FaultPlan(tuple(events))


@st.composite
def message_batches(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    messages = []
    for index in range(count):
        source = draw(st.integers(min_value=0, max_value=NODES - 1))
        offset = draw(st.integers(min_value=1, max_value=NODES - 1))
        flits = draw(st.integers(min_value=0, max_value=6))
        messages.append(Message(index, source, (source + offset) % NODES,
                                data_flits=flits))
    return messages


def build_ring(plan, seed=3):
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       retry=RetryPolicy(delay=4.0, max_retries=6))
    return RMBRing(config, seed=seed, fault_plan=plan, recovery=True)


@settings(max_examples=20, deadline=None)
@given(flapping_plans(), message_batches())
def test_conservation_under_grace_window_flapping(plan, messages):
    ring = build_ring(plan)
    records = ring.submit_all(messages)
    ring.run(FLAPPING_SPAN)   # let every flap (and every probe) play out
    ring.drain(max_ticks=500_000)
    stats = ring.stats()
    assert stats.offered == len(messages)
    assert stats.completed + stats.abandoned + stats.shed == stats.offered
    for record in records:
        assert record.finished or record.abandoned or record.shed
        if record.abandoned:
            assert record.nacks > 0 or record.shed is False
    # Teardown hygiene: no zombie buses, no claimed segments.
    assert not ring.buses
    assert ring.grid.occupied_segments() == 0
    ring.check_now()


@settings(max_examples=20, deadline=None)
@given(flapping_plans(), message_batches(),
       st.integers(min_value=0, max_value=2**16))
def test_recovery_runs_are_deterministic(plan, messages, seed):
    outcomes = []
    for _ in range(2):
        ring = build_ring(plan, seed=seed)
        ring.submit_all(messages)
        ring.run(FLAPPING_SPAN)
        ring.drain(max_ticks=500_000)
        outcomes.append((
            ring.sim.now,
            ring.stats().summary(),
            ring.recovery.stats.summary(),
            sorted((target, breaker.state, breaker.trips)
                   for target, breaker in ring.recovery.breakers.items()),
            {mid: record.completed_at
             for mid, record in ring.routing.records.items()},
        ))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=15, deadline=None)
@given(flapping_plans())
def test_quarantined_segments_are_eventually_readmitted(plan):
    """Every breaker the schedule trips is probed and closed once the
    flapping stops — quarantine is a detour, never a dead end."""
    ring = build_ring(plan)
    ring.submit_all(Message(i, i, (i + 3) % NODES, data_flits=2)
                    for i in range(6))
    ring.run(FLAPPING_SPAN)
    ring.drain(max_ticks=500_000)
    # Give the probe loop room after the last plan event: the widest
    # possible quarantine is one backed-off reopening (512 ticks) plus
    # probation (256) plus slack.
    ring.run(2_000)
    assert ring.recovery.open_breakers() == 0
    assert ring.recovery.half_open_breakers() == 0
    opened = ring.recovery.stats.breakers_opened
    if opened:
        assert ring.recovery.stats.breakers_closed >= 1
