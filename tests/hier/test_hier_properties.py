"""Property-based tests for the hierarchical fabric.

Five contracts, over randomly drawn traffic on a 4x4 hierarchy unless
noted:

* delivery conservation — every journey completes, and each member
  ring executes exactly the legs the route plans assigned to it;
* journey conservation under admission control — on drawn hierarchy
  shapes, after every drain each offered journey is completed,
  abandoned or shed, including journeys shed at a bridge;
* locality — same-local-ring traffic never touches the global ring;
* shortest chain — plans have the minimum length the bridge topology
  allows, and name the right rings in the right order;
* determinism — identical seed and traffic reproduce the hop trail
  (rings, timestamps) and latencies bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import RMBConfig
from repro.core.flits import Message
from repro.hier import GLOBAL_RING, HierRMB, HierRouteMap, local_ring_name

LOCALS = 4
PER_LOCAL = 4
NODES = LOCALS * PER_LOCAL


@st.composite
def traffic(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    messages = []
    for index in range(count):
        source = draw(st.integers(min_value=0, max_value=NODES - 1))
        offset = draw(st.integers(min_value=1, max_value=NODES - 1))
        flits = draw(st.integers(min_value=0, max_value=6))
        messages.append(Message(index, source, (source + offset) % NODES,
                                data_flits=flits))
    return messages


def build(seed=0):
    return HierRMB(locals=LOCALS, nodes_per_local=PER_LOCAL, lanes=4,
                   seed=seed)


@settings(max_examples=15, deadline=None)
@given(traffic(), st.integers(min_value=0, max_value=3))
def test_delivery_is_conserved_across_bridge_hops(messages, seed):
    network = build(seed)
    network.submit_all(messages)
    network.drain()
    assert all(j.finished for j in network.journeys.values())
    assert len(network.journeys) == len(messages)
    # Each ring executed exactly the legs planned onto it, and every
    # executed leg delivered.
    for name, ring in network.rings.items():
        planned = sum(1 for j in network.journeys.values()
                      for hop in j.plan if hop.ring == name)
        assert len(ring.routing.records) == planned
        assert all(record.finished
                   for record in ring.routing.records.values())
    # Leg totals line up with the plans (conservation at the bridges).
    total_legs = sum(len(j.trail) for j in network.journeys.values())
    assert total_legs == sum(len(j.plan) for j in network.journeys.values())


@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from([(4, 4), (4, 6), (6, 4)]),
       limit=st.integers(min_value=1, max_value=3),
       policy=st.sampled_from(["shed", "defer"]),
       seed=st.integers(min_value=0, max_value=3),
       data=st.data())
def test_journeys_are_conserved_under_admission_control(shape, limit, policy,
                                                         seed, data):
    """Every offered journey ends completed, abandoned or shed after each
    drain, whether admission sheds its first leg or a later one."""
    locals_count, per_local = shape
    nodes = locals_count * per_local
    network = HierRMB(locals=locals_count, nodes_per_local=per_local,
                      lanes=3, seed=seed,
                      config=RMBConfig(nodes=per_local, lanes=3,
                                       admission_limit=limit,
                                       admission_policy=policy))
    for burst in range(2):
        for index in range(data.draw(st.integers(min_value=1,
                                                 max_value=12))):
            source = data.draw(st.integers(min_value=0,
                                           max_value=nodes - 1))
            offset = data.draw(st.integers(min_value=1,
                                           max_value=nodes - 1))
            network.submit(Message(100 * burst + index, source,
                                   (source + offset) % nodes,
                                   data_flits=2))
        network.drain()
        stats = network.stats()
        assert stats.offered == len(network.journeys)
        assert stats.offered == \
            stats.completed + stats.abandoned + stats.shed


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=LOCALS - 1),
       st.lists(st.tuples(st.integers(min_value=0, max_value=PER_LOCAL - 1),
                          st.integers(min_value=1, max_value=PER_LOCAL - 1)),
                min_size=1, max_size=8))
def test_local_traffic_never_touches_the_global_ring(local, pairs):
    network = build()
    for index, (i, offset) in enumerate(pairs):
        j = (i + offset) % PER_LOCAL
        network.submit(Message(index, network.address(local, i),
                               network.address(local, j), data_flits=2))
    network.drain()
    assert not network.rings[GLOBAL_RING].routing.records
    for other in range(LOCALS):
        if other != local:
            assert not network.rings[local_ring_name(other)].routing.records
    assert all([hop.ring for hop in j.trail] == [local_ring_name(local)]
               for j in network.journeys.values())


@given(st.integers(min_value=0, max_value=NODES - 1),
       st.integers(min_value=0, max_value=NODES - 1))
def test_plans_take_the_shortest_chain(source, destination):
    route_map = HierRouteMap(LOCALS, PER_LOCAL)
    if source == destination:
        return
    plan = route_map.plan(Message(0, source, destination, data_flits=1))
    src_ring, i = divmod(source, PER_LOCAL)
    dst_ring, j = divmod(destination, PER_LOCAL)
    if src_ring == dst_ring:
        assert [hop.ring for hop in plan] == [local_ring_name(src_ring)]
        assert plan[0].source == i and plan[0].destination == j
        return
    expected = 1 + (i != 0) + (j != 0)
    assert len(plan) == expected
    rings = [hop.ring for hop in plan]
    assert rings.count(GLOBAL_RING) == 1
    if i != 0:
        assert plan[0].ring == local_ring_name(src_ring)
        assert (plan[0].source, plan[0].destination) == (i, 0)
    if j != 0:
        assert plan[-1].ring == local_ring_name(dst_ring)
        assert (plan[-1].source, plan[-1].destination) == (0, j)
    middle = plan[1 if i != 0 else 0]
    assert middle.ring == GLOBAL_RING
    assert (middle.source, middle.destination) == (src_ring, dst_ring)


@settings(max_examples=10, deadline=None)
@given(traffic(), st.integers(min_value=0, max_value=3))
def test_fixed_seed_runs_reproduce_the_hop_trail(messages, seed):
    def trail_signature(network):
        return {
            message_id: tuple(
                (hop.ring, hop.submitted_at, hop.completed_at)
                for hop in journey.trail)
            for message_id, journey in network.journeys.items()
        }

    first = build(seed)
    first.submit_all(messages)
    first.drain()
    second = build(seed)
    second.submit_all(
        [Message(m.message_id, m.source, m.destination,
                 data_flits=m.data_flits) for m in messages])
    second.drain()
    assert trail_signature(first) == trail_signature(second)
    assert ([j.latency() for j in first.journeys.values()]
            == [j.latency() for j in second.journeys.values()])
    assert first.sim.now == second.sim.now
