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
    explore_lifecycle,
    fault_scenarios,
    symmetry_group,
)
from repro.protocol.handshake import HandshakePhase

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


@pytest.mark.parametrize("scenario", [
    s for s, _ in _nontrivial_scenarios()
], ids=lambda s: s.label)
def test_world_rotation_surgery_matches_signature_transform(scenario):
    config = scenario.config()
    messages = scenario.messages()
    group = symmetry_group(config, messages)
    cloner = _Cloner(config, messages)
    world = _World(config, messages, ExploreOptions())
    step = 0
    for _ in range(25):
        actions = world.actions()
        if not actions:
            break
        world.apply(actions[step % len(actions)])
        step += 3
        signature = world.raw_signature()
        for rotation, relabelling in group:
            if rotation == 0:
                continue
            twin = cloner.loads(cloner.dumps(world))
            twin.rotate(rotation)
            assert twin.raw_signature() == _transform_signature(
                signature, config.nodes, rotation, relabelling), (
                scenario.label, rotation)


def test_world_rotation_carries_parked_headers():
    """A parked header records its head and next columns with their
    epochs.  Rotation turns the epoch rows with the occupancy rows and
    the recorded columns with every other segment index, so in the
    rotated world the record still names the header's own two columns
    and their unchanged epochs; its settled and due passes count header
    passes and carry over as they are.  The ready nodes turn with the
    ring.  One lane and two-hop messages make headers park along the
    walk."""
    scenario = Scenario("4x1-span2", 4, 1, ((0, 2), (1, 3), (2, 0), (3, 1)))
    config = scenario.config()
    messages = scenario.messages()
    nodes = config.nodes
    cloner = _Cloner(config, messages)
    world = _World(config, messages, ExploreOptions())
    parked_seen = ready_seen = 0
    step = 0
    for _ in range(25):
        actions = world.actions()
        if not actions:
            break
        world.apply(actions[step % len(actions)])
        step += 3
        parked_seen += len(world.engine._parked)
        ready_seen += len(world.engine._ready)
        for rotation, _ in symmetry_group(config, messages):
            if rotation == 0:
                continue
            twin = cloner.loads(cloner.dumps(world))
            twin.rotate(rotation)
            assert twin.grid.epochs == [
                world.grid.epochs[(s - rotation) % nodes]
                for s in range(nodes)]
            assert twin.engine._ready == {
                (node + rotation) % nodes for node in world.engine._ready}
            assert twin.engine._parked.keys() == world.engine._parked.keys()
            for bus_id, (head, head_epoch, ahead, ahead_epoch, settled,
                         due) in twin.engine._parked.items():
                bus = twin.buses[bus_id]
                assert head == bus.segment_index(len(bus.hops) - 1)
                assert ahead == bus.segment_index(len(bus.hops))
                assert (head_epoch, ahead_epoch) == \
                    world.engine._parked[bus_id][1:4:2]
                assert (settled, due) == world.engine._parked[bus_id][4:]
    assert parked_seen > 0
    assert ready_seen > 0


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
