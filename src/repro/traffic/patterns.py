"""One vocabulary over every workload shape the suite drives.

A :class:`TrafficPattern` names *who sends to whom*: a permutation family
from :data:`repro.traffic.permutations.FAMILIES`, a k-permutation (the
paper's Section 3 capability metric), or a stochastic destination model
(uniform / hotspot / locality).  The orthogonal axis — *when* messages
are injected — is an arrival process from :mod:`repro.traffic.arrivals`
(Bernoulli, Poisson, bursty MMPP, diurnal).  :func:`pattern_schedule`
composes the two into a replayable
:class:`~repro.traffic.arrivals.ArrivalSchedule`, and
:func:`pattern_batch` realises a pattern as a zero-time message batch for
the cross-topology arena.

Patterns are parsed from compact specs (``"transpose"``,
``"hotspot:0.3"``, ``"kperm:4"``, ``"ring-shift:5"``) so the CLI, the
saturation engine and the benchmarks all speak the same strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.flits import Message
from repro.errors import WorkloadError
from repro.sim.rng import RandomStream
from repro.traffic.arrivals import (
    ArrivalSchedule,
    DestinationFn,
    bernoulli_schedule,
    diurnal_schedule,
    hotspot_destinations,
    local_destinations,
    mmpp_schedule,
    poisson_schedule,
    uniform_destinations,
)
from repro.traffic.kpermutation import random_kpermutation
from repro.traffic.permutations import FAMILIES, generate

#: Pattern kinds.
PERMUTATION = "permutation"
KPERMUTATION = "kpermutation"
STOCHASTIC = "stochastic"

#: Stochastic destination models addressable by spec.
STOCHASTIC_MODELS = ("uniform", "hotspot", "local")

#: Arrival processes addressable by name (see :func:`pattern_schedule`).
ARRIVALS = ("bernoulli", "poisson", "mmpp", "diurnal")


@dataclass(frozen=True)
class TrafficPattern:
    """A named destination structure over ``nodes`` ring positions.

    Attributes:
        spec: the canonical spec string the pattern was parsed from.
        nodes: network size the pattern is bound to.
        kind: ``"permutation"``, ``"kpermutation"`` or ``"stochastic"``.
        sources: the injecting nodes (fixed points of a permutation and
            non-participants of a k-permutation never inject).
        fixed: for deterministic patterns, ``fixed[i]`` is node ``i``'s
            destination (``i`` itself marks a silent node); ``None`` for
            stochastic patterns.
        chooser: for stochastic patterns, the per-draw destination
            function; ``None`` for deterministic ones.
    """

    spec: str
    nodes: int
    kind: str
    sources: tuple[int, ...]
    fixed: Optional[tuple[int, ...]] = None
    chooser: Optional[DestinationFn] = field(default=None, compare=False)

    def destination_fn(self) -> DestinationFn:
        """The pattern as a destination chooser for arrival schedules."""
        if self.fixed is not None:
            fixed = self.fixed

            def choose(source: int, rng: RandomStream) -> int:
                destination = fixed[source]
                if destination == source:
                    raise WorkloadError(
                        f"node {source} is silent under pattern "
                        f"{self.spec!r}; inject from sources only"
                    )
                return destination

            return choose
        assert self.chooser is not None
        return self.chooser

    def pairs(self) -> list[tuple[int, int]]:
        """The deterministic (source, destination) pairs.

        Raises:
            WorkloadError: for stochastic patterns, which have no fixed
                pair set — realise them with :func:`pattern_batch`.
        """
        if self.fixed is None:
            raise WorkloadError(
                f"pattern {self.spec!r} is stochastic; it has no fixed "
                f"pair set (use pattern_batch to sample one)"
            )
        return [(source, self.fixed[source]) for source in self.sources]

    def describe(self) -> str:
        return (f"{self.spec} ({self.kind}, {len(self.sources)}/"
                f"{self.nodes} nodes injecting)")


def _parse_param(spec: str) -> tuple[str, Optional[str]]:
    """Split ``"name:param"`` into head and optional parameter."""
    head, _, param = spec.partition(":")
    return head, (param if param else None)


def make_pattern(spec: str, nodes: int, k: int = 4,
                 seed: int = 0) -> TrafficPattern:
    """Parse a pattern spec bound to a network size.

    Accepted specs:

    * any :data:`FAMILIES` name (``"transpose"``, ``"tornado"``, ...);
      ``"ring-shift:D"`` selects the shift distance;
    * ``"kperm"`` / ``"kperm:K"`` — a seeded random k-permutation
      (defaults to the lane count ``k``);
    * ``"uniform"`` — uniform random destinations;
    * ``"hotspot"`` / ``"hotspot:FRACTION"`` — hotspot node 0 attracting
      the given traffic fraction (default 0.2);
    * ``"local"`` / ``"local:REACH"`` — clockwise locality (default
      reach ``max(1, nodes // 8)``).

    Random draws derive from ``(seed, spec)`` named streams, so the same
    spec + seed always names the identical pattern.
    """
    if nodes < 2:
        raise WorkloadError(
            f"traffic patterns need at least 2 nodes, got {nodes}"
        )
    head, param = _parse_param(spec)
    rng = RandomStream(seed, name=f"pattern/{spec}")
    if head in FAMILIES:
        if head == "ring-shift" and param is not None:
            perm = FAMILIES[head](nodes, int(param))  # type: ignore[call-arg]
        else:
            if param is not None:
                raise WorkloadError(
                    f"pattern {head!r} takes no parameter, got {spec!r}"
                )
            perm = generate(head, nodes, rng)
        sources = tuple(node for node, dest in enumerate(perm)
                        if dest != node)
        return TrafficPattern(spec=spec, nodes=nodes, kind=PERMUTATION,
                              sources=sources, fixed=tuple(perm))
    if head == "kperm":
        size = int(param) if param is not None else max(1, min(k, nodes - 1))
        pairs = random_kpermutation(nodes, size, rng)
        fixed = list(range(nodes))
        for source, destination in pairs:
            fixed[source] = destination
        return TrafficPattern(
            spec=spec, nodes=nodes, kind=KPERMUTATION,
            sources=tuple(sorted(source for source, _ in pairs)),
            fixed=tuple(fixed),
        )
    if head == "uniform":
        return TrafficPattern(
            spec=spec, nodes=nodes, kind=STOCHASTIC,
            sources=tuple(range(nodes)),
            chooser=uniform_destinations(nodes),
        )
    if head == "hotspot":
        fraction = float(param) if param is not None else 0.2
        return TrafficPattern(
            spec=spec, nodes=nodes, kind=STOCHASTIC,
            sources=tuple(range(nodes)),
            chooser=hotspot_destinations(nodes, hotspot=0,
                                         fraction=fraction),
        )
    if head == "local":
        reach = int(param) if param is not None else max(1, nodes // 8)
        return TrafficPattern(
            spec=spec, nodes=nodes, kind=STOCHASTIC,
            sources=tuple(range(nodes)),
            chooser=local_destinations(nodes, reach=reach),
        )
    raise WorkloadError(
        f"unknown traffic pattern {spec!r}; choose a permutation family "
        f"({', '.join(sorted(FAMILIES))}), 'kperm[:K]', or a stochastic "
        f"model ({', '.join(STOCHASTIC_MODELS)})"
    )


def pattern_schedule(
    pattern: TrafficPattern,
    duration: float,
    rate: float,
    data_flits: int,
    seed: int,
    arrival: str = "bernoulli",
    start_id: int = 0,
    mmpp_mean_on: float = 50.0,
    mmpp_mean_off: float = 150.0,
    diurnal_period: float = 500.0,
) -> ArrivalSchedule:
    """Compose a pattern with an arrival process into a schedule.

    ``rate`` is the per-injecting-node offered load in messages per tick
    (the Bernoulli probability / Poisson rate; for MMPP it is the ON-phase
    rate and for diurnal the peak rate, so the delivered mean is lower).
    The schedule is deterministic in ``(seed, pattern.spec, arrival,
    rate)`` via a named stream fork.
    """
    rng = RandomStream(
        seed, name=f"traffic/{pattern.spec}/{arrival}/{rate:.8g}")
    destinations = pattern.destination_fn()
    sources = pattern.sources
    if arrival == "bernoulli":
        return bernoulli_schedule(
            pattern.nodes, int(duration), rate, data_flits, rng,
            destinations=destinations, sources=sources, start_id=start_id)
    if arrival == "poisson":
        return poisson_schedule(
            pattern.nodes, duration, rate, data_flits, rng,
            destinations=destinations, sources=sources, start_id=start_id)
    if arrival == "mmpp":
        return mmpp_schedule(
            pattern.nodes, duration, rate, data_flits, rng,
            destinations=destinations, sources=sources, start_id=start_id,
            mean_on=mmpp_mean_on, mean_off=mmpp_mean_off)
    if arrival == "diurnal":
        return diurnal_schedule(
            pattern.nodes, duration, rate, data_flits, rng,
            destinations=destinations, sources=sources, start_id=start_id,
            period=diurnal_period)
    raise WorkloadError(
        f"unknown arrival process {arrival!r}; "
        f"choose from {', '.join(ARRIVALS)}"
    )


def pattern_batch(
    pattern: TrafficPattern,
    data_flits: int,
    seed: int = 0,
    rounds: int = 1,
    start_id: int = 0,
) -> ArrivalSchedule:
    """Realise a pattern as ``rounds`` back-to-back zero-time batches.

    The arena's unit of comparison: every entry arrives at t=0, so each
    topology races the identical message set from a standing start (the
    Section 3 discipline).  Permutation families repeat their pair set
    each round (``rounds`` copies of ``ring-shift`` is the sustained
    neighbour k-permutation workload); k-permutations redraw a *fresh*
    set after the first round, so rounds sample independent
    k-permutations instead of stacking one draw's worst segment;
    stochastic patterns draw one destination per source per round.  All
    draws come from a ``(seed, spec)`` named stream.
    """
    if rounds < 1:
        raise WorkloadError(f"rounds must be >= 1, got {rounds}")
    rng = RandomStream(seed, name=f"batch/{pattern.spec}")
    entries: list[tuple[float, Message]] = []
    next_id = start_id
    for round_index in range(rounds):
        if pattern.kind == KPERMUTATION and round_index > 0:
            draws = random_kpermutation(
                pattern.nodes, len(pattern.sources),
                rng.fork(f"round{round_index}"))
        elif pattern.fixed is not None:
            draws = [(source, pattern.fixed[source])
                     for source in pattern.sources]
        else:
            chooser = pattern.destination_fn()
            draws = [(source, chooser(source, rng))
                     for source in pattern.sources]
        for source, destination in draws:
            entries.append((
                0.0,
                Message(message_id=next_id, source=source,
                        destination=destination, data_flits=data_flits),
            ))
            next_id += 1
    return ArrivalSchedule(entries)


#: Re-exported convenience alias used by benchmarks.
PatternFactory = Callable[[str, int, int, int], TrafficPattern]


def batch_pairs(messages: Sequence[Message]) -> list[tuple[int, int]]:
    """(source, destination) view of a message batch (for load metrics)."""
    return [(message.source, message.destination) for message in messages]
