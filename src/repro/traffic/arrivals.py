"""Stochastic arrival processes and message-size models.

The paper evaluates capability analytically; the behavioural benchmarks
additionally sweep offered load, which needs arrival processes.  These are
the standard ones for interconnect studies — Bernoulli/Poisson per-node
injection with uniform, hot-spot, or locality-biased destinations — plus
two "millions of users" shapes for the service-scale experiments: a
two-state MMPP (bursty on/off sources) and a diurnal sinusoid-modulated
Poisson process.

Every generator is deterministic in ``(seed, name)`` through the named
:class:`~repro.sim.rng.RandomStream` forks, so the identical workload can
be replayed against different networks and backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.core.flits import Message
from repro.errors import WorkloadError
from repro.sim.rng import RandomStream

#: Destination chooser: (source, rng) -> destination.
DestinationFn = Callable[[int, RandomStream], int]


def uniform_destinations(nodes: int) -> DestinationFn:
    """Uniform over all nodes except the source.

    Raises:
        WorkloadError: for ``nodes < 2`` — a one-node network has no
            non-self destination to pick (drawing would otherwise reach
            ``randint(0, -1)`` deep inside a schedule generator).
    """
    if nodes < 2:
        raise WorkloadError(
            f"uniform destinations need at least 2 nodes (no non-self "
            f"destination exists), got {nodes}"
        )

    def choose(source: int, rng: RandomStream) -> int:
        destination = rng.randint(0, nodes - 2)
        return destination if destination < source else destination + 1

    return choose


def hotspot_destinations(nodes: int, hotspot: int,
                         fraction: float) -> DestinationFn:
    """With probability ``fraction`` send to ``hotspot``, else uniform."""
    if not 0 <= hotspot < nodes:
        raise WorkloadError(f"hotspot {hotspot} outside 0..{nodes - 1}")
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"fraction must be in [0, 1], got {fraction}")
    uniform = uniform_destinations(nodes)

    def choose(source: int, rng: RandomStream) -> int:
        if source != hotspot and rng.random() < fraction:
            return hotspot
        return uniform(source, rng)

    return choose


def local_destinations(nodes: int, reach: int) -> DestinationFn:
    """Uniform over the next ``reach`` clockwise neighbours.

    Ring-friendly locality: the traffic class the RMB's constant-length
    wires and segment reuse are designed for.
    """
    if not 1 <= reach < nodes:
        raise WorkloadError(f"reach must be in 1..{nodes - 1}, got {reach}")

    def choose(source: int, rng: RandomStream) -> int:
        return (source + rng.randint(1, reach)) % nodes

    return choose


@dataclass
class ArrivalSchedule:
    """A concrete list of (time, message) injections, pre-generated so the
    identical workload can be replayed against different networks."""

    entries: list[tuple[float, Message]]

    def __iter__(self) -> Iterator[tuple[float, Message]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def messages(self) -> list[Message]:
        return [message for _, message in self.entries]

    def horizon(self) -> float:
        return self.entries[-1][0] if self.entries else 0.0


def _check_nodes(nodes: int) -> None:
    if nodes < 1:
        raise WorkloadError(f"need at least 1 node, got {nodes}")


def _resolve_sources(nodes: int,
                     sources: Optional[Sequence[int]]) -> list[int]:
    """Validate an explicit injector set (default: every node)."""
    if sources is None:
        return list(range(nodes))
    resolved = list(sources)
    for node in resolved:
        if not 0 <= node < nodes:
            raise WorkloadError(
                f"injection source {node} outside 0..{nodes - 1}"
            )
    if len(set(resolved)) != len(resolved):
        raise WorkloadError("injection sources must be distinct")
    return resolved


def bernoulli_schedule(
    nodes: int,
    duration: int,
    injection_rate: float,
    data_flits: int,
    rng: RandomStream,
    destinations: Optional[DestinationFn] = None,
    start_id: int = 0,
    sources: Optional[Sequence[int]] = None,
) -> ArrivalSchedule:
    """Per-node Bernoulli injection: each tick each node fires a message
    with probability ``injection_rate`` (messages per node per tick)."""
    _check_nodes(nodes)
    if not 0.0 <= injection_rate <= 1.0:
        raise WorkloadError(
            f"injection_rate must be in [0, 1], got {injection_rate}"
        )
    choose = destinations if destinations is not None else \
        uniform_destinations(nodes)
    injectors = _resolve_sources(nodes, sources)
    entries = []
    next_id = start_id
    draw = rng.bound_random()  # one trial per (tick, node)
    for tick in range(duration):
        for node in injectors:
            if draw() < injection_rate:
                destination = choose(node, rng)
                entries.append((
                    float(tick),
                    Message(message_id=next_id, source=node,
                            destination=destination, data_flits=data_flits,
                            created_at=float(tick)),
                ))
                next_id += 1
    return ArrivalSchedule(entries)


def poisson_schedule(
    nodes: int,
    duration: float,
    rate_per_node: float,
    data_flits: int,
    rng: RandomStream,
    destinations: Optional[DestinationFn] = None,
    start_id: int = 0,
    sources: Optional[Sequence[int]] = None,
) -> ArrivalSchedule:
    """Per-node Poisson arrivals with exponential inter-arrival times."""
    _check_nodes(nodes)
    if rate_per_node <= 0:
        raise WorkloadError(f"rate must be positive, got {rate_per_node}")
    choose = destinations if destinations is not None else \
        uniform_destinations(nodes)
    entries = []
    next_id = start_id
    for node in _resolve_sources(nodes, sources):
        node_rng = rng.fork(f"node{node}")
        time = node_rng.expovariate(rate_per_node)
        while time < duration:
            destination = choose(node, node_rng)
            entries.append((
                time,
                Message(message_id=next_id, source=node,
                        destination=destination, data_flits=data_flits,
                        created_at=time),
            ))
            next_id += 1
            time += node_rng.expovariate(rate_per_node)
    entries.sort(key=lambda entry: (entry[0], entry[1].message_id))
    return ArrivalSchedule(entries)


def mmpp_schedule(
    nodes: int,
    duration: float,
    on_rate: float,
    data_flits: int,
    rng: RandomStream,
    destinations: Optional[DestinationFn] = None,
    mean_on: float = 50.0,
    mean_off: float = 150.0,
    off_rate: float = 0.0,
    start_id: int = 0,
    sources: Optional[Sequence[int]] = None,
) -> ArrivalSchedule:
    """Two-state Markov-modulated Poisson arrivals (bursty on/off users).

    Each node alternates exponentially-distributed ON phases (Poisson
    arrivals at ``on_rate``) and OFF phases (``off_rate``, usually 0).
    The long-run mean rate is
    ``(on_rate * mean_on + off_rate * mean_off) / (mean_on + mean_off)``;
    the burst structure is what distinguishes the process from a plain
    Poisson stream of the same mean.  Deterministic per node via the
    named ``rng.fork(f"node{i}")`` streams.
    """
    _check_nodes(nodes)
    if on_rate <= 0:
        raise WorkloadError(f"on_rate must be positive, got {on_rate}")
    if off_rate < 0 or off_rate > on_rate:
        raise WorkloadError(
            f"off_rate must be in [0, on_rate], got {off_rate}"
        )
    if mean_on <= 0 or mean_off <= 0:
        raise WorkloadError(
            f"phase lengths must be positive, got mean_on={mean_on}, "
            f"mean_off={mean_off}"
        )
    choose = destinations if destinations is not None else \
        uniform_destinations(nodes)
    entries = []
    next_id = start_id
    on_share = mean_on / (mean_on + mean_off)
    for node in _resolve_sources(nodes, sources):
        node_rng = rng.fork(f"node{node}")
        # Start in the stationary phase mix so the burst structure has no
        # start-of-run transient.
        on = node_rng.random() < on_share
        time = 0.0
        phase_end = node_rng.expovariate(1.0 / (mean_on if on else mean_off))
        while time < duration:
            rate = on_rate if on else off_rate
            if rate > 0.0:
                step = node_rng.expovariate(rate)
                if time + step < min(phase_end, duration):
                    time += step
                    destination = choose(node, node_rng)
                    entries.append((
                        time,
                        Message(message_id=next_id, source=node,
                                destination=destination,
                                data_flits=data_flits, created_at=time),
                    ))
                    next_id += 1
                    continue
            # No arrival before the phase boundary: jump phases.  The
            # discarded partial inter-arrival draw is statistically free
            # (exponential memorylessness).
            time = phase_end
            on = not on
            phase_end = time + node_rng.expovariate(
                1.0 / (mean_on if on else mean_off))
    entries.sort(key=lambda entry: (entry[0], entry[1].message_id))
    return ArrivalSchedule(entries)


def diurnal_schedule(
    nodes: int,
    duration: float,
    peak_rate: float,
    data_flits: int,
    rng: RandomStream,
    destinations: Optional[DestinationFn] = None,
    period: float = 500.0,
    trough_fraction: float = 0.1,
    start_id: int = 0,
    sources: Optional[Sequence[int]] = None,
) -> ArrivalSchedule:
    """Sinusoid-modulated Poisson arrivals (a compressed day/night cycle).

    The instantaneous per-node rate follows
    ``peak_rate * (trough + (1 - trough) * (1 - cos(2*pi*t/period)) / 2)``
    — the run starts at the trough ("night"), peaks mid-period, and
    returns.  Implemented by Lewis-Shedler thinning of a ``peak_rate``
    Poisson stream, so determinism reduces to the per-node named streams
    exactly as for :func:`poisson_schedule`.
    """
    _check_nodes(nodes)
    if peak_rate <= 0:
        raise WorkloadError(f"peak_rate must be positive, got {peak_rate}")
    if period <= 0:
        raise WorkloadError(f"period must be positive, got {period}")
    if not 0.0 < trough_fraction <= 1.0:
        raise WorkloadError(
            f"trough_fraction must be in (0, 1], got {trough_fraction}"
        )
    choose = destinations if destinations is not None else \
        uniform_destinations(nodes)

    def modulation(time: float) -> float:
        wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * time / period))
        return trough_fraction + (1.0 - trough_fraction) * wave

    entries = []
    next_id = start_id
    for node in _resolve_sources(nodes, sources):
        node_rng = rng.fork(f"node{node}")
        time = node_rng.expovariate(peak_rate)
        while time < duration:
            if node_rng.random() < modulation(time):
                destination = choose(node, node_rng)
                entries.append((
                    time,
                    Message(message_id=next_id, source=node,
                            destination=destination, data_flits=data_flits,
                            created_at=time),
                ))
                next_id += 1
            time += node_rng.expovariate(peak_rate)
    entries.sort(key=lambda entry: (entry[0], entry[1].message_id))
    return ArrivalSchedule(entries)
