"""Unit and property tests for k-permutations and ring load."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.sim import RandomStream
from repro.traffic.kpermutation import (
    bounded_load_pairs,
    max_ring_load,
    random_kpermutation,
    ring_load,
    validate_kpermutation,
    worst_case_virtual_buses,
)


def brute_force_load(pairs, nodes):
    load = [0] * nodes
    for source, destination in pairs:
        position = source
        while position != destination:
            load[position] += 1
            position = (position + 1) % nodes
    return load


def test_ring_load_simple_arc():
    assert ring_load([(1, 4)], 8) == [0, 1, 1, 1, 0, 0, 0, 0]


def test_ring_load_wrapping_arc():
    assert ring_load([(6, 2)], 8) == [1, 1, 0, 0, 0, 0, 1, 1]


def test_ring_load_matches_brute_force_fixed_cases():
    pairs = [(0, 3), (2, 7), (6, 1), (5, 5)]
    assert ring_load(pairs, 8) == brute_force_load(pairs, 8)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20,
))
def test_ring_load_matches_brute_force_property(pairs):
    assert ring_load(pairs, 12) == brute_force_load(pairs, 12)


def test_max_ring_load_empty():
    assert max_ring_load([], 8) == 0


def test_validate_kpermutation_accepts_good_input():
    validate_kpermutation([(0, 1), (2, 3)], nodes=8)


@pytest.mark.parametrize("pairs", [
    [(0, 1), (0, 2)],          # duplicate source
    [(0, 2), (1, 2)],          # duplicate destination
    [(0, 0)],                  # self-send
    [(0, 9)],                  # out of range
])
def test_validate_kpermutation_rejections(pairs):
    with pytest.raises(WorkloadError):
        validate_kpermutation(pairs, nodes=8)


def test_random_kpermutation_shape():
    rng = RandomStream(4)
    pairs = random_kpermutation(16, 5, rng)
    assert len(pairs) == 5
    validate_kpermutation(pairs, 16)


def test_random_kpermutation_bounds():
    rng = RandomStream(4)
    with pytest.raises(WorkloadError):
        random_kpermutation(8, 0, rng)
    with pytest.raises(WorkloadError):
        random_kpermutation(8, 9, rng)


def test_bounded_load_pairs_meets_bound():
    rng = RandomStream(4)
    for k in (1, 2, 4):
        pairs = bounded_load_pairs(16, k, rng)
        assert max_ring_load(pairs, 16) <= k


def test_worst_case_virtual_buses_geometry():
    pairs = worst_case_virtual_buses(8, 3)
    assert len(pairs) == 3
    # Each message spans N - 1 segments.
    assert all((d - s) % 8 == 7 for s, d in pairs)
    # Peak segment load is exactly k.
    assert max_ring_load(pairs, 8) == 3


def test_worst_case_bounds():
    with pytest.raises(WorkloadError):
        worst_case_virtual_buses(8, 0)


def test_many_short_messages_unit_load():
    # E15's many-short-messages pattern: N single-segment messages load
    # every segment exactly once.
    pairs = [(i, (i + 1) % 8) for i in range(8)]
    assert len(pairs) == 8
    assert ring_load(pairs, 8) == [1] * 8
