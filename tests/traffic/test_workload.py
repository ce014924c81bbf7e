"""Unit tests for workload drivers."""

import pytest

from repro.core import RMBConfig, RMBRing
from repro.errors import WorkloadError
from repro.sim import RandomStream
from repro.traffic import (
    bernoulli_schedule,
    permutation_messages,
    replay_on_ring,
)


def test_permutation_messages_skip_fixed_points():
    messages = permutation_messages([0, 2, 1, 3], data_flits=4)
    assert len(messages) == 2
    assert {(m.source, m.destination) for m in messages} == {(1, 2), (2, 1)}


def test_permutation_messages_validates_input():
    with pytest.raises(WorkloadError):
        permutation_messages([0, 0, 1], data_flits=1)


def test_replay_on_ring_delivers_at_schedule_times():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    schedule = bernoulli_schedule(8, 60, 0.05, data_flits=3,
                                  rng=RandomStream(1))
    replay_on_ring(ring, schedule)
    ring.run(schedule.horizon() + 1)
    ring.drain()
    stats = ring.stats()
    assert stats.offered == len(schedule)
    assert stats.completed == len(schedule)


def test_replay_rejects_past_entries():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.run(100)
    schedule = bernoulli_schedule(8, 10, 0.3, data_flits=1,
                                  rng=RandomStream(1))
    with pytest.raises(WorkloadError):
        replay_on_ring(ring, schedule)
