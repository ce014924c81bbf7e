"""Unit tests for arrival processes and destination choosers."""

import pytest

from repro.core.flits import Message
from repro.errors import WorkloadError
from repro.sim import RandomStream
from repro.traffic.arrivals import (
    bernoulli_schedule,
    hotspot_destinations,
    local_destinations,
    poisson_schedule,
    uniform_destinations,
)
from repro.traffic.patterns import make_pattern


def test_uniform_destinations_never_self():
    rng = RandomStream(1)
    choose = uniform_destinations(8)
    draws = [choose(3, rng) for _ in range(300)]
    assert all(d != 3 for d in draws)
    assert set(draws) == {0, 1, 2, 4, 5, 6, 7}


def test_hotspot_bias():
    rng = RandomStream(2)
    choose = hotspot_destinations(8, hotspot=5, fraction=0.8)
    draws = [choose(0, rng) for _ in range(500)]
    hot = sum(1 for d in draws if d == 5)
    assert hot > 350  # ~0.8 * 500 plus uniform share


def test_hotspot_node_itself_uses_uniform():
    rng = RandomStream(2)
    choose = hotspot_destinations(8, hotspot=5, fraction=1.0)
    draws = [choose(5, rng) for _ in range(100)]
    assert all(d != 5 for d in draws)


def test_hotspot_validation():
    with pytest.raises(WorkloadError):
        hotspot_destinations(8, hotspot=9, fraction=0.5)
    with pytest.raises(WorkloadError):
        hotspot_destinations(8, hotspot=1, fraction=1.5)


def test_local_destinations_within_reach():
    rng = RandomStream(3)
    choose = local_destinations(8, reach=2)
    draws = [choose(6, rng) for _ in range(200)]
    assert set(draws) <= {7, 0}


def test_local_destinations_validation():
    with pytest.raises(WorkloadError):
        local_destinations(8, reach=0)
    with pytest.raises(WorkloadError):
        local_destinations(8, reach=8)


def test_bernoulli_schedule_statistics():
    rng = RandomStream(4)
    schedule = bernoulli_schedule(nodes=8, duration=500,
                                  injection_rate=0.1, data_flits=4, rng=rng)
    expected = 8 * 500 * 0.1
    assert 0.8 * expected < len(schedule) < 1.2 * expected
    times = [time for time, _ in schedule]
    assert times == sorted(times)
    ids = [message.message_id for _, message in schedule]
    assert len(set(ids)) == len(ids)


def test_bernoulli_rate_validation():
    rng = RandomStream(4)
    with pytest.raises(WorkloadError):
        bernoulli_schedule(8, 10, injection_rate=1.5, data_flits=1, rng=rng)


def test_bernoulli_created_at_matches_schedule_time():
    rng = RandomStream(4)
    schedule = bernoulli_schedule(4, 50, 0.2, data_flits=1, rng=rng)
    assert all(message.created_at == time for time, message in schedule)


def test_poisson_schedule_sorted_and_within_horizon():
    rng = RandomStream(5)
    schedule = poisson_schedule(nodes=4, duration=200.0, rate_per_node=0.05,
                                data_flits=2, rng=rng)
    times = [time for time, _ in schedule]
    assert times == sorted(times)
    assert all(0 < time < 200 for time in times)
    expected = 4 * 200 * 0.05
    assert 0.5 * expected < len(schedule) < 1.6 * expected


def test_poisson_rate_validation():
    rng = RandomStream(5)
    with pytest.raises(WorkloadError):
        poisson_schedule(4, 10.0, rate_per_node=0.0, data_flits=1, rng=rng)


def test_schedule_helpers():
    rng = RandomStream(6)
    schedule = bernoulli_schedule(4, 50, 0.2, data_flits=1, rng=rng)
    assert schedule.horizon() == max(t for t, _ in schedule)
    assert len(schedule.messages()) == len(schedule)


def test_deterministic_given_stream_seed():
    first = bernoulli_schedule(4, 100, 0.1, 2, RandomStream(7))
    second = bernoulli_schedule(4, 100, 0.1, 2, RandomStream(7))
    assert [(t, m.source, m.destination) for t, m in first] == \
        [(t, m.source, m.destination) for t, m in second]


def _drawn_through_the_wrapper(nodes, duration, rate, data_flits, rng,
                               destinations, sources):
    """``bernoulli_schedule`` as it drew before: one
    ``RandomStream.random`` call per (tick, node) trial."""
    entries = []
    for tick in range(duration):
        for node in sources:
            if rng.random() < rate:
                destination = destinations(node, rng)
                entries.append((float(tick), Message(
                    message_id=len(entries), source=node,
                    destination=destination, data_flits=data_flits,
                    created_at=float(tick))))
    return entries


@pytest.mark.parametrize("spec", ["uniform", "local:8", "hotspot:0.3",
                                  "tornado", "kperm:3"])
@pytest.mark.parametrize("seed", [0, 7, 21])
def test_bernoulli_schedule_draws_what_the_wrapper_drew(spec, seed):
    """Drawing through the generator's own ``random`` changes no draw and
    no order: same messages, same times, same generator state after."""
    pattern = make_pattern(spec, 32, seed=seed)
    sources = pattern.sources or tuple(range(32))
    name = f"schedule/{spec}"
    schedule = bernoulli_schedule(
        32, 300, 0.05, 4, RandomStream(seed, name=name),
        destinations=pattern.destination_fn(), sources=pattern.sources)
    reference_rng = RandomStream(seed, name=name)
    reference = _drawn_through_the_wrapper(
        32, 300, 0.05, 4, reference_rng, pattern.destination_fn(), sources)
    assert len(reference) >= 20
    assert schedule.entries == reference
    replayed = RandomStream(seed, name=name)
    bernoulli_schedule(32, 300, 0.05, 4, replayed,
                       destinations=pattern.destination_fn(),
                       sources=pattern.sources)
    assert replayed.getstate() == reference_rng.getstate()
