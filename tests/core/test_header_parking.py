"""Work gate: a stalled header is not re-evaluated while it cannot move.

A header whose lane pick failed parks on the epochs of its head and
next columns and only pays its stall tick until one of them changes
(DESIGN.md P4).  This pins that in machine-independent work: on a small
overload job (32 nodes, k=4, 0.04 msg/node/tick for 150 ticks, about
ten times past saturation) the simulated outcome is the one the
unparked engine produced, while full header evaluations — calls of
``RoutingEngine._pick_extension_lane`` — stay under a tenth of the
stall ticks.  Evaluating every stalled header on every tick took
261,874 evaluations for the same 254,775 stall ticks.
"""

from __future__ import annotations

from unittest import mock

from repro.core import RMBConfig, RMBRing
from repro.core.routing import RoutingEngine
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring


def test_stalled_headers_are_not_re_evaluated_every_tick():
    ring = RMBRing(RMBConfig(nodes=32, lanes=4, cycle_period=2.0,
                             check_level="sampled"),
                   seed=7, trace_kinds=set(), probe_period=16.0)
    replay_on_ring(ring, bernoulli_schedule(
        32, 150, 0.04, 8, RandomStream(7, name="perf")))
    pick = RoutingEngine._pick_extension_lane
    evaluations = [0]

    def counted(engine, segment, entry_lane):
        evaluations[0] += 1
        return pick(engine, segment, entry_lane)

    with mock.patch.object(RoutingEngine, "_pick_extension_lane", counted):
        ring.run(150)
        ring.drain()
    stall_ticks = sum(record.head_stall_ticks
                      for record in ring.routing.records.values())
    assert stall_ticks == 254_775
    assert ring.sim.now == 27_712
    assert evaluations[0] <= stall_ticks // 10
