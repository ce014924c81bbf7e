"""Unit tests for clock domains."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import ClockDomain, RandomStream, Simulator, skewed_domains


def test_edges_arrive_at_period(sim):
    edges = []
    clock = ClockDomain(sim, period=10)
    clock.subscribe(lambda index: edges.append((index, sim.now)))
    clock.start()
    sim.run(until=35)
    assert edges == [(0, 10.0), (1, 20.0), (2, 30.0)]


def test_offset_delays_first_edge(sim):
    edges = []
    clock = ClockDomain(sim, period=10, offset=5)
    clock.subscribe(lambda index: edges.append(sim.now))
    clock.start()
    sim.run(until=30)
    assert edges == [15.0, 25.0]


def test_drift_changes_effective_period(sim):
    clock = ClockDomain(sim, period=10, drift=0.1)
    assert clock.effective_period == pytest.approx(11.0)
    edges = []
    clock.subscribe(lambda index: edges.append(sim.now))
    clock.start()
    sim.run(until=23)
    assert edges == [11.0, 22.0]


def test_jitter_requires_rng(sim):
    with pytest.raises(ConfigurationError):
        ClockDomain(sim, period=10, jitter=1)


def test_jitter_bounded(sim, rng):
    clock = ClockDomain(sim, period=10, jitter=2, rng=rng)
    times = []
    clock.subscribe(lambda index: times.append(sim.now))
    clock.start()
    sim.run(until=500)
    intervals = [b - a for a, b in zip(times, times[1:])]
    assert intervals, "clock produced no intervals"
    assert all(8.0 <= gap <= 12.0 for gap in intervals)


def test_stop_halts_edges(sim):
    edges = []
    clock = ClockDomain(sim, period=5)
    clock.subscribe(lambda index: edges.append(sim.now))
    clock.start()
    sim.run(until=12)
    clock.stop()
    sim.run(until=100)
    assert len(edges) == 2


def test_single_subscriber_enforced(sim):
    clock = ClockDomain(sim, period=5)
    clock.subscribe(lambda index: None)
    with pytest.raises(ConfigurationError):
        clock.subscribe(lambda index: None)


def test_start_without_subscriber_rejected(sim):
    clock = ClockDomain(sim, period=5)
    with pytest.raises(ConfigurationError):
        clock.start()


def test_double_start_rejected(sim):
    clock = ClockDomain(sim, period=5)
    clock.subscribe(lambda index: None)
    clock.start()
    with pytest.raises(ConfigurationError):
        clock.start()


@pytest.mark.parametrize("bad_kwargs", [
    {"period": 0},
    {"period": -1},
    {"period": 1, "offset": -1},
    {"period": 1, "drift": -1.0},
])
def test_invalid_parameters(sim, bad_kwargs):
    with pytest.raises(ConfigurationError):
        ClockDomain(sim, **bad_kwargs)


def test_jitter_must_be_below_period(sim, rng):
    with pytest.raises(ConfigurationError):
        ClockDomain(sim, period=5, jitter=5, rng=rng)


def test_skewed_domains_differ(sim, rng):
    domains = skewed_domains(sim, 8, period=10, rng=rng)
    offsets = {domain.offset for domain in domains}
    drifts = {domain.drift for domain in domains}
    assert len(offsets) > 1
    assert len(drifts) > 1
    assert all(abs(domain.drift) <= 0.05 for domain in domains)


def test_skewed_domains_deliver_edges(sim, rng):
    counts = [0] * 4
    domains = skewed_domains(sim, 4, period=10, rng=rng)

    def subscriber(index):
        def on_edge(_edge):
            counts[index] += 1

        return on_edge

    for index, domain in enumerate(domains):
        domain.subscribe(subscriber(index))
        domain.start()
    sim.run(until=200)
    assert all(15 <= count <= 25 for count in counts)
