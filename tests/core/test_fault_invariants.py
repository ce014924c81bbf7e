"""Property-based tests for fault injection and graceful degradation.

The fault layer must weaken *performance*, never *correctness*.  These
properties pin that down:

* Theorem 1 safety under faults — with the invariant monitor armed, any
  seeded fault plan leaves every surviving virtual bus connected, legal,
  and exclusive (the monitor raises mid-run otherwise);
* no silent drops — after draining with a bounded retry budget, every
  submitted message either completed or was explicitly abandoned after
  Nacks; nothing vanishes, and the grid ends empty;
* Lemma 1 under INC dropouts — a dropped INC stops compacting but keeps
  its cycle handshake, so neighbouring cycle counts still differ by at
  most one throughout;
* determinism — the same seed and plan produce the identical delivered
  set and identical headline statistics, run to run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing, max_neighbour_skew
from repro.core.config import RetryPolicy
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim import RandomStream


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NODES, LANES = 8, 3


@st.composite
def fault_plans(draw, nodes=NODES, lanes=LANES, max_events=4):
    """Random mixtures of segment / lane / INC outages and repairs."""
    events = []
    count = draw(st.integers(min_value=1, max_value=max_events))
    for _ in range(count):
        kind = draw(st.sampled_from(list(FaultKind)))
        time = float(draw(st.integers(min_value=0, max_value=150)))
        grace = float(draw(st.sampled_from([0, 8, 16])))
        segment = draw(st.integers(min_value=0, max_value=nodes - 1))
        lane = draw(st.integers(min_value=0, max_value=lanes - 1))
        if kind is FaultKind.SEGMENT:
            event = FaultEvent(time=time, kind=kind, segment=segment,
                               lane=lane, grace=grace)
        elif kind is FaultKind.LANE:
            event = FaultEvent(time=time, kind=kind, lane=lane, grace=grace)
        else:
            event = FaultEvent(time=time, kind=kind, segment=segment,
                               grace=grace)
        events.append(event)
        if draw(st.booleans()):
            events.append(FaultEvent(
                time=time + grace + float(draw(st.integers(8, 64))),
                kind=kind, action="repair", segment=event.segment,
                lane=event.lane,
            ))
    return FaultPlan(tuple(events))


@st.composite
def fault_batches(draw, nodes=NODES):
    """Random message batches sized for the fault-test geometry."""
    count = draw(st.integers(min_value=1, max_value=8))
    messages = []
    for index in range(count):
        source = draw(st.integers(min_value=0, max_value=nodes - 1))
        offset = draw(st.integers(min_value=1, max_value=nodes - 1))
        flits = draw(st.integers(min_value=0, max_value=8))
        messages.append(Message(index, source, (source + offset) % nodes,
                                data_flits=flits))
    return messages


def build_ring(plan, seed=3, synchronous=True, **overrides):
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       synchronous=synchronous,
                       retry=RetryPolicy(
                           delay=4.0,
                           max_retries=overrides.pop("max_retries", 5)),
                       **overrides)
    # check_level defaults to "full": the monitor (including the fault-aware
    # monotonicity and no-dead-occupancy checks) runs every cycle and
    # raises mid-run on any Theorem 1 violation.
    return RMBRing(config, seed=seed, fault_plan=plan)


# ---------------------------------------------------------------------------
# Theorem 1 safety + no silent drops
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(fault_plans(), fault_batches())
def test_surviving_buses_stay_legal_under_any_plan(plan, messages):
    ring = build_ring(plan)
    records = ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    ring.check_now()                       # one final full invariant sweep
    # Fault teardown must leave no residue: all segments free, no zombie
    # buses, and the delivered + abandoned split covers every record.
    assert ring.grid.occupied_segments() == 0
    assert not ring.buses
    for record in records:
        assert record.finished or record.abandoned


@settings(max_examples=25, deadline=None)
@given(fault_plans(), fault_batches())
def test_no_silent_message_drops(plan, messages):
    ring = build_ring(plan)
    records = ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    stats = ring.stats()
    assert stats.offered == len(messages)
    # Conservation: every offered message is accounted for exactly once.
    assert stats.completed + stats.abandoned == stats.offered
    # An abandonment must be justified by explicit refusals.
    for record in records:
        if record.abandoned:
            assert record.nacks + record.fault_nacks + record.fault_kills > 0


def test_header_with_no_healthy_lane_in_reach_is_fault_nacked():
    # Lanes 1 and 2 of segment 0 die at once and lane 0 stays healthy.  A
    # header on the top lane can reach only lanes 1 and 2 there (D9 keeps
    # its head hop high), so no wait lets it pass before a repair: each
    # attempt is refused with a fault Nack instead of stalling into the
    # header timeout, and the abandonment is booked to the fault.
    plan = FaultPlan(tuple(
        FaultEvent(time=0.0, kind=FaultKind.SEGMENT, segment=0, lane=lane,
                   grace=0.0)
        for lane in (1, 2)
    ))
    ring = build_ring(plan)
    (record,) = ring.submit_all([Message(0, 2, 1, data_flits=0)])
    ring.drain(max_ticks=500_000)
    assert record.abandoned
    assert record.fault_nacks == record.retries + 1
    assert record.head_stall_ticks == 0


# ---------------------------------------------------------------------------
# Lemma 1 across INC dropouts
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=NODES - 1),
       st.integers(min_value=0, max_value=2**20),
       fault_batches())
def test_lemma1_skew_bounded_across_inc_dropout(inc, seed, messages):
    plan = FaultPlan((
        FaultEvent(time=20.0, kind=FaultKind.INC, segment=inc, grace=8.0),
        FaultEvent(time=150.0, kind=FaultKind.INC, action="repair",
                   segment=inc),
    ))
    ring = build_ring(plan, seed=seed, synchronous=False)
    ring.submit_all(messages)
    for _ in range(40):
        ring.run(8.0)
        assert max_neighbour_skew(ring.controllers) <= 1
    ring.drain(max_ticks=500_000)
    assert max_neighbour_skew(ring.controllers) <= 1


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _run_once(plan, messages, seed):
    ring = build_ring(plan, seed=seed)
    records = ring.submit_all(messages)
    ring.drain(max_ticks=500_000)
    delivered = frozenset(r.message.message_id for r in records if r.finished)
    return delivered, ring.stats().summary(), ring.faults.stats.summary()


@settings(max_examples=10, deadline=None)
@given(fault_plans(), fault_batches(), st.integers(0, 2**20))
def test_same_seed_and_plan_reproduce_exactly(plan, messages, seed):
    first = _run_once(plan, messages, seed)
    second = _run_once(plan, messages, seed)
    assert first == second


def test_random_plans_are_seed_deterministic():
    make = lambda: FaultPlan.random(
        NODES, LANES, fraction=0.3, at=50.0,
        rng=RandomStream(99, name="plan"), grace=8.0, spread=20.0,
        repair_after=40.0,
    )
    assert make() == make()
    assert len(make().events) == 2 * round(0.3 * NODES * LANES)


def test_plan_json_round_trip():
    rng = RandomStream(4, name="plan")
    plan = FaultPlan.random(NODES, LANES, fraction=0.25, at=30.0, rng=rng,
                            repair_after=16.0)
    assert FaultPlan.from_json(plan.to_json()) == plan
