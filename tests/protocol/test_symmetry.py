"""The symmetry quotient: canonicalisation laws and orbit coverage.

Quotienting is only as sound as its group action, so these tests pin the
three load-bearing facts separately:

* *algebra* — canonicalisation is invariant under every group element
  and idempotent (Hypothesis drives the handshake side over arbitrary
  joint states; the lifecycle side walks real reachable signatures);
* *surgery* — ``_World.rotate`` (the concrete world transformation used
  to expand orbit members) produces exactly the signature the symbolic
  ``_transform_signature`` predicts;
* *coverage* — against brute-force enumeration on small rings, every
  orbit of the exact reachable set appears in the quotiented run.  The
  engine's intra-tick serialisation is not rotation-covariant, so the
  quotient explores a serialisation-*closure* of the reachable set:
  coverage is asserted as a superset, with equality where the closure
  happens to add nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RetryPolicy
from repro.errors import ProtocolError
from repro.protocol.explore import (
    ExploreOptions,
    Scenario,
    _Cloner,
    _World,
    _canonical_handshake,
    _canonical_signature,
    _prepare_group,
    _rotation_relabelling,
    _transform_signature,
    default_scenarios,
    exploration_config,
    explore_lifecycle,
    fault_scenarios,
    symmetry_group,
)
from repro.protocol.handshake import HandshakePhase
from tests.core.rebuilt import derived, rebuilt

PHASES = list(HandshakePhase)

joints = st.lists(
    st.tuples(st.sampled_from(PHASES), st.integers(min_value=0, max_value=6)),
    min_size=2, max_size=6,
)


def _rotated(cells, rotation):
    count = len(cells)
    return tuple(cells[(i - rotation) % count] for i in range(count))


def _reflected(cells):
    count = len(cells)
    return tuple(cells[(-i) % count] for i in range(count))


# ---------------------------------------------------------------------------
# Handshake canonicalisation (full dihedral group)
# ---------------------------------------------------------------------------

@given(cells=joints)
@settings(max_examples=200)
def test_handshake_canon_is_rotation_and_reflection_invariant(cells):
    cells = tuple(cells)
    canon = _canonical_handshake(cells, symmetry=True)
    for rotation in range(len(cells)):
        assert _canonical_handshake(
            _rotated(cells, rotation), symmetry=True) == canon
        assert _canonical_handshake(
            _reflected(_rotated(cells, rotation)), symmetry=True) == canon


@given(cells=joints)
@settings(max_examples=200)
def test_handshake_canon_is_idempotent(cells):
    canon = _canonical_handshake(tuple(cells), symmetry=True)
    assert _canonical_handshake(canon, symmetry=True) == canon


@given(cells=joints)
@settings(max_examples=100)
def test_handshake_canon_shifts_cycles_to_floor_zero(cells):
    canon = _canonical_handshake(tuple(cells), symmetry=True)
    assert min(cycle for _, cycle in canon) == 0


# ---------------------------------------------------------------------------
# Lifecycle group structure
# ---------------------------------------------------------------------------

def _nontrivial_scenarios():
    out = []
    for scenario in default_scenarios() + fault_scenarios():
        group = symmetry_group(scenario.config(), scenario.messages())
        if len(group) > 1:
            out.append((scenario, group))
    return out


def test_symmetry_groups_exist_for_symmetric_loads():
    labels = {s.label: len(g) for s, g in _nontrivial_scenarios()}
    # The rotation-invariant rings must be recognised, odd N included.
    assert labels["2x1-pair"] == 2
    assert labels["3x2-ring"] == 3
    assert labels["4x2-ring"] == 4
    assert labels["6x2-tri"] == 3


def test_symmetry_group_is_closed_under_composition():
    for scenario, group in _nontrivial_scenarios():
        config = scenario.config()
        nodes = config.nodes
        elements = {rotation: relabelling for rotation, relabelling in group}
        for r1, pi1 in group:
            for r2, pi2 in group:
                composed = {m: pi1[pi2[m]] for m in pi2}
                assert elements[(r1 + r2) % nodes] == composed, scenario.label


def test_asymmetric_load_gets_identity_group_only():
    scenario = Scenario("4x2-asym", 4, 2, ((0, 2), (1, 3), (2, 0)))
    group = symmetry_group(scenario.config(), scenario.messages())
    assert len(group) == 1 and group[0][0] == 0


def test_fault_target_restriction_filters_rotations():
    scenario = Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0)))
    config = scenario.config()
    full = symmetry_group(config, scenario.messages())
    assert len(full) == 4
    pinned = symmetry_group(config, scenario.messages(),
                            fault_targets=((1, 0),))
    # Only the identity keeps {(1, 0)} fixed.
    assert [rotation for rotation, _ in pinned] == [0]


def test_rotation_relabelling_rejects_asymmetric_multisets():
    ring = Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert _rotation_relabelling(ring.messages(), 4, 1) is not None
    # The cross's rotation-by-1 image contains (2, 0), which the load
    # does not: only the identity survives.
    cross = Scenario("4x1-cross", 4, 1, ((0, 2), (1, 3)))
    assert _rotation_relabelling(cross.messages(), 4, 1) is None


# ---------------------------------------------------------------------------
# Lifecycle canonicalisation over reachable signatures
# ---------------------------------------------------------------------------

def _reachable_signatures(scenario, limit=400):
    report = explore_lifecycle(
        scenario.config(), scenario.messages(), label=scenario.label,
        options=ExploreOptions(keep_state_keys=True),
    )
    return report.state_keys[:limit]


@pytest.mark.parametrize("scenario", [
    s for s, _ in _nontrivial_scenarios()
], ids=lambda s: s.label)
def test_lifecycle_canon_is_group_invariant_and_idempotent(scenario):
    config = scenario.config()
    group = _prepare_group(symmetry_group(config, scenario.messages()))
    for signature in _reachable_signatures(scenario):
        canon = _canonical_signature(signature, config.nodes, group)
        assert _canonical_signature(canon, config.nodes, group) == canon
        for rotation, relabelling, identity in group:
            if identity:
                continue
            image = _transform_signature(
                signature, config.nodes, rotation, relabelling)
            assert _canonical_signature(
                image, config.nodes, group) == canon, (
                scenario.label, rotation)


def _rotate_along_walk(config, messages, options, steps, stride):
    """Walk a world and rotate a clone of it by every group element after
    each step, requiring the surgery to give the transformed signature.
    Returns how many rotated worlds held a faulty segment."""
    group = symmetry_group(config, messages)
    cloner = _Cloner(config, messages)
    world = _World(config, messages, options)
    faulty = 0
    step = 0
    for _ in range(steps):
        actions = world.actions()
        if not actions:
            break
        world.apply(actions[step % len(actions)])
        step += stride
        signature = world.raw_signature()
        for rotation, relabelling in group:
            if rotation == 0:
                continue
            twin = cloner.loads(cloner.dumps(world))
            twin.rotate(rotation)
            assert twin.raw_signature() == _transform_signature(
                signature, config.nodes, rotation, relabelling), rotation
            faulty += world.grid.faulty_count() > 0
    return faulty


@pytest.mark.parametrize("scenario", [
    s for s, _ in _nontrivial_scenarios()
], ids=lambda s: s.label)
def test_world_rotation_surgery_matches_signature_transform(scenario):
    """Surgery and transform agree on a healthy walk, and on a walk with
    fault moves, whose rotated worlds hold DYING and DEAD segments."""
    config = scenario.config()
    messages = scenario.messages()
    _rotate_along_walk(config, messages, ExploreOptions(), 25, 3)
    assert _rotate_along_walk(config, messages,
                              ExploreOptions(fault_budget=1), 40, 5) > 0


def test_world_rotation_turns_node_retry_totals():
    """Under a node budget the per-node retry totals are part of the
    signature; rotation turns them like every node-indexed vector.  The
    walk reaches totals that differ from node to node."""
    config = exploration_config(3, 1, retry=RetryPolicy(
        jitter=0.0, header_timeout=3.0, max_retries=None, node_budget=2))
    messages = Scenario("3x1-budget", 3, 1,
                        ((0, 2), (1, 0), (2, 1))).messages()
    assert len(symmetry_group(config, messages)) == 3
    _rotate_along_walk(config, messages, ExploreOptions(), 40, 3)


def test_world_rotation_rebinds_every_bus_to_its_relabelled_message():
    """A bus binds its endpoints and span from its message, and rotation
    swaps the message: every rotated bus reads the endpoints of its new
    message, which are its old ones turned by the rotation, and that
    message's span."""
    scenario = Scenario("4x2-mixed", 4, 2, ((0, 1), (2, 3), (1, 3), (3, 1)))
    config = scenario.config()
    world = _World(config, scenario.messages(), ExploreOptions())
    world.apply(("tick",))
    before = {bus_id: (bus.message.message_id, bus.source, bus.destination,
                       bus.span) for bus_id, bus in world.buses.items()}
    assert len(before) == 4 and {span for *_, span in before.values()} == \
        {1, 2}
    world.rotate(2)
    assert world.buses.keys() == before.keys()
    for bus_id, bus in world.buses.items():
        message_id, source, destination, span = before[bus_id]
        assert bus.message.message_id != message_id
        assert (bus.source, bus.destination, bus.span) == (
            bus.message.source, bus.message.destination,
            bus.message.span(config.nodes))
        assert (bus.source, bus.destination, bus.span) == (
            (source + 2) % 4, (destination + 2) % 4, span)
        assert derived(bus) == derived(rebuilt(bus))


def test_world_rotation_rebuilds_derived_state():
    """Rotation turns primary state only and then rebuilds: the rotated
    world parks no header, the stall ticks its parked headers had not
    yet counted are counted, and every derived field equals a fresh
    rebuild.  One lane and two-hop messages make headers park along the
    walk; the world is rotated in place after every third step, so some
    parked headers have waited out passes unvisited."""
    scenario = Scenario("4x1-span2", 4, 1, ((0, 2), (1, 3), (2, 0), (3, 1)))
    config = scenario.config()
    messages = scenario.messages()
    group = symmetry_group(config, messages)
    world = _World(config, messages, ExploreOptions())
    unsettled_seen = 0
    step = 0
    for walked in range(1, 31):
        actions = world.actions()
        if not actions:
            break
        world.apply(actions[step % len(actions)])
        step += 2
        if walked % 3:
            continue
        engine = world.engine
        stalls = dict(engine._stall_ticks)
        for bus_id, wait in engine._parked.items():
            stalls[bus_id] += engine._passes - wait[4]
            unsettled_seen += wait[4] != engine._passes
        world.rotate(group[1 + step % (len(group) - 1)][0])
        assert engine._parked == {}
        assert engine._stall_ticks == stalls
        for owner in (world.grid, world.compaction, engine,
                      *world.buses.values()):
            assert derived(owner) == derived(rebuilt(owner))
    assert unsettled_seen > 0


def test_rotate_rejects_non_symmetry():
    scenario = Scenario("4x1-cross", 4, 1, ((0, 2), (1, 3)))
    world = _World(scenario.config(), scenario.messages(), ExploreOptions())
    with pytest.raises(ProtocolError):
        world.rotate(2)


# ---------------------------------------------------------------------------
# Orbit coverage against brute force (N <= 4)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", [
    Scenario("2x1-pair", 2, 1, ((0, 1), (1, 0))),
    Scenario("3x2-ring", 3, 2, ((0, 1), (1, 2), (2, 0))),
    Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0))),
], ids=lambda s: s.label)
def test_quotient_covers_every_exact_orbit(scenario):
    config = scenario.config()
    messages = scenario.messages()
    group = _prepare_group(symmetry_group(config, messages))
    assert len(group) > 1

    exact = explore_lifecycle(config, messages, label=scenario.label,
                              options=ExploreOptions(keep_state_keys=True))
    orbits = {_canonical_signature(s, config.nodes, group)
              for s in exact.state_keys}
    quotient = explore_lifecycle(
        config, messages, label=scenario.label,
        options=ExploreOptions(symmetry=True, keep_state_keys=True))

    assert quotient.group_order == len(group)
    # Every truly reachable orbit is explored; the serialisation closure
    # may add more, never fewer.
    assert orbits <= set(quotient.state_keys), scenario.label
    assert quotient.states >= len(orbits)
    # Verdicts agree: the closure only adds rotated serialisations of
    # reachable behaviour, so a clean exact run stays clean quotiented.
    assert exact.ok and quotient.ok


def test_quotient_compresses_the_even_ring():
    # On the 4x2 ring the order-4 group genuinely collapses the state
    # count: 28 exact states fold to their 26 true orbits.
    scenario = Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0)))
    config = scenario.config()
    exact = explore_lifecycle(config, scenario.messages(),
                              label=scenario.label)
    quotient = explore_lifecycle(config, scenario.messages(),
                                 label=scenario.label,
                                 options=ExploreOptions(symmetry=True))
    assert exact.states == 28
    assert quotient.states == 26
    assert quotient.group_order == 4
