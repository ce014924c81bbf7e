"""Property test: observability is strictly passive.

The observability layer (ISSUE PR 4) promises that attaching metrics
and span recording at *any* level never changes what a run computes —
no RNG draws, no scheduling, only reads.  This test pits observed runs
(``level="full"`` and ``"sampled"``) against unobserved runs
(``obs=None``) across random seeds, fault plans, synchronous and
asynchronous clocking, and watchdog supervision, requiring byte-equal
observables: the stats summary serialised as JSON, the grid signature,
every message's lifecycle timestamps, and the compaction counters —
the same observable set as ``test_fastpath_equivalence``.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hier import HierRMB
from repro.obs import OBS_LEVELS, Observability
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_fabric

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


def run_and_observe(seed: int, plan: FaultPlan | None, *,
                    synchronous: bool, watchdog: bool,
                    obs: Observability | None) -> tuple:
    config = RMBConfig(nodes=NODES, lanes=LANES, synchronous=synchronous,
                       retry=RetryPolicy(
                           jitter=0.25,
                           max_retries=8 if plan is not None else None))
    ring = RMBRing(
        config, seed=seed, probe_period=16.0, fault_plan=plan, obs=obs,
        watchdog=watchdog)
    ring.submit_all(
        Message(message_id=i, source=(i + seed) % NODES,
                destination=(i + seed + 2 + i % 3) % NODES,
                data_flits=2 + (i % 5))
        for i in range(10)
    )
    ring.sim.run(until=HORIZON)
    ring.drain()
    return (
        ring.sim.now,
        json.dumps(ring.stats().summary(), sort_keys=True),
        ring.grid.state_signature(),
        {mid: (record.injected_at, record.established_at,
               record.delivered_at, record.completed_at, record.retries)
         for mid, record in ring.routing.records.items()},
        ring.compaction.stats.moves,
        ring.compaction.stats.evacuations,
    )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       synchronous=st.booleans(),
       watchdog=st.booleans())
def test_full_observation_changes_nothing(seed, plan, synchronous, watchdog):
    """obs level ``full`` == no obs at all, bit for bit."""
    observed = run_and_observe(seed, plan, synchronous=synchronous,
                               watchdog=watchdog,
                               obs=Observability("full"))
    bare = run_and_observe(seed, plan, synchronous=synchronous,
                           watchdog=watchdog, obs=None)
    assert observed == bare


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       level=st.sampled_from(OBS_LEVELS))
def test_every_obs_level_matches_the_unobserved_run(seed, plan, level):
    observed = run_and_observe(seed, plan, synchronous=True, watchdog=False,
                               obs=Observability(level))
    bare = run_and_observe(seed, plan, synchronous=True, watchdog=False,
                           obs=None)
    assert observed == bare


def test_observed_run_records_what_the_stats_report():
    """Cross-check: registry scrapes equal the run's own stats summary."""
    obs = Observability("full")
    result = run_and_observe(3, None, synchronous=True, watchdog=False,
                             obs=obs)
    summary = json.loads(result[1])
    obs.registry.collect()
    assert obs.registry.value("rmb_routing_completed") == summary["completed"]
    assert obs.registry.value("rmb_routing_shed") == summary["shed"]
    assert obs.registry.value("rmb_routing_forced_teardowns") == \
        summary["forced_teardowns"]
    spans = obs.spans.spans()
    assert len(spans) == 10
    completed = [span for span in spans if span.duration() is not None]
    assert len(completed) == summary["completed"]


def run_fabric(seed: int, obs: Observability | None) -> tuple:
    fabric = HierRMB(locals=4, nodes_per_local=4, lanes=3, seed=seed,
                     probe_period=16.0, obs=obs)
    replay_on_fabric(fabric, bernoulli_schedule(
        16, 60, 0.05, 4, RandomStream(seed, name="obs")))
    fabric.run(60)
    fabric.drain()
    return (
        fabric.sim.now,
        json.dumps(fabric.stats().summary(), sort_keys=True),
        {name: json.dumps(stats.summary(), sort_keys=True)
         for name, stats in fabric.stats_by_ring().items()},
        {name: ring.grid.state_signature()
         for name, ring in fabric.rings.items()},
    )


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_observed_fabric_matches_the_unobserved_fabric(seed):
    """A fabric's members share one registry, labelled by ring."""
    obs = Observability("full")
    assert run_fabric(seed, obs) == run_fabric(seed, None)
    for name in ("local0", "local1", "local2", "local3", "global"):
        assert obs.registry.value("rmb_ring", ring=name) == 1.0
