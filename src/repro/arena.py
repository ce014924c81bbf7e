"""Cross-topology arena: the paper's Section 3 race, made a harness.

One workload — realised as a zero-time
:class:`~repro.traffic.arrivals.ArrivalSchedule` by
:func:`repro.traffic.patterns.pattern_batch` — is replayed, identically,
across any set of :mod:`repro.networks` topologies, each sized "fairly"
for the same node count and wire budget by
:func:`repro.networks.registry.build_network`.  The report ranks the
architectures per pattern the way Figure-style comparisons in the paper
do (makespan, normalised against the RMB row), in the spirit of
pyCircuit's ``fm16_system.py`` side-by-side.

Every message object is rebuilt per network so no state can leak
between competitors; results are deterministic in the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Optional, Sequence

from repro.analysis.tables import render_comparison
from repro.core.flits import Message
from repro.errors import TopologyError, WorkloadError
from repro.networks.base import BatchResult
from repro.networks.registry import (
    EXTRA_NETWORKS,
    PAPER_NETWORKS,
    build_network,
    is_known_network,
)
from repro.traffic.arrivals import ArrivalSchedule
from repro.traffic.kpermutation import max_ring_load
from repro.traffic.patterns import (
    TrafficPattern,
    batch_pairs,
    make_pattern,
    pattern_batch,
)

#: The default line-up: the paper's own Section 3 set plus the
#: conventional multibus it contrasts against in the concluding remark.
DEFAULT_NETWORKS = PAPER_NETWORKS + ("multibus",)


@dataclass
class ArenaSection:
    """One pattern's race: the identical schedule across every network."""

    pattern: TrafficPattern
    schedule: ArrivalSchedule
    results: list[BatchResult]
    peak_ring_load: int

    def rows(self) -> list[dict[str, Any]]:
        return [result.row() for result in self.results]

    def ordering(self) -> list[str]:
        """Network names from fastest to slowest makespan."""
        return [result.network for result in self._ranked()]

    def ranking(self) -> str:
        """The ordering as text: ``<`` between makespans, ``=`` in a tie."""
        ties = groupby(self._ranked(), key=lambda r: r.makespan)
        return " < ".join(" = ".join(r.network for r in tied)
                          for _, tied in ties)

    def _ranked(self) -> list[BatchResult]:
        return sorted(self.results, key=lambda r: (r.makespan, r.network))

    def result_for(self, network: str) -> BatchResult:
        for result in self.results:
            if result.network == network:
                return result
        raise WorkloadError(
            f"network {network!r} was not raced in this section"
        )

    def title(self) -> str:
        return (f"{self.pattern.spec}: {len(self.schedule)} messages, "
                f"peak ring load {self.peak_ring_load}")


@dataclass
class ArenaReport:
    """All sections of one arena run plus the shared geometry."""

    nodes: int
    lanes: int
    data_flits: int
    seed: int
    rounds: int
    networks: tuple[str, ...]
    sections: list[ArenaSection]

    def render(self) -> str:
        """The full report as deterministic text (golden-fixture stable)."""
        parts = [
            f"arena: N={self.nodes} k={self.lanes} flits={self.data_flits} "
            f"seed={self.seed} rounds={self.rounds}",
            f"networks: {', '.join(self.networks)}",
        ]
        for section in self.sections:
            parts.append("")
            parts.append(render_comparison(
                section.title(), section.rows(),
                baseline_key="rmb", value_key="makespan"))
            parts.append(f"ordering: {section.ranking()}")
        return "\n".join(parts)

    def summary(self) -> dict[str, Any]:
        """JSON-able record (the CI arena-smoke artifact shape)."""
        return {
            "nodes": self.nodes,
            "lanes": self.lanes,
            "data_flits": self.data_flits,
            "seed": self.seed,
            "rounds": self.rounds,
            "networks": list(self.networks),
            "sections": [
                {
                    "pattern": section.pattern.spec,
                    "messages": len(section.schedule),
                    "peak_ring_load": section.peak_ring_load,
                    "ordering": section.ordering(),
                    "rows": section.rows(),
                }
                for section in self.sections
            ],
        }


def _fresh_messages(schedule: ArrivalSchedule) -> list[Message]:
    """Rebuild the batch so each competitor gets untouched objects."""
    return [dataclasses.replace(message)
            for message in schedule.messages()]


def run_arena(
    nodes: int,
    lanes: int,
    patterns: Sequence[str],
    networks: Sequence[str] = DEFAULT_NETWORKS,
    data_flits: int = 16,
    seed: int = 0,
    rounds: int = 1,
    max_ticks: float = 2_000_000.0,
    prebuilt: Optional[dict[str, ArrivalSchedule]] = None,
) -> ArenaReport:
    """Race every pattern's schedule across every named network.

    Args:
        patterns: pattern specs (see
            :func:`repro.traffic.patterns.make_pattern`).
        networks: registry names; unknown names raise before any run.
        rounds: batch rounds per pattern (k-permutations are usually
            raced over several rounds so segment reuse matters).
        prebuilt: optional spec -> schedule overrides, letting callers
            replay an externally built :class:`ArrivalSchedule` (e.g. a
            recorded arrival trace) through the identical line-up.
    """
    if not patterns:
        raise WorkloadError("arena needs at least one pattern")
    if not networks:
        raise WorkloadError("arena needs at least one network")
    unknown = [name for name in networks if not is_known_network(name)]
    if unknown:
        raise TopologyError(
            f"unknown arena networks {unknown}; "
            f"choose from {arena_network_choices()} "
            f"(hier also accepts an explicit split, e.g. hier:4x8)"
        )
    sections = []
    for spec in patterns:
        pattern = make_pattern(spec, nodes, k=lanes, seed=seed)
        if prebuilt is not None and spec in prebuilt:
            schedule = prebuilt[spec]
        else:
            schedule = pattern_batch(pattern, data_flits=data_flits,
                                     seed=seed, rounds=rounds)
        if len(schedule) == 0:
            raise WorkloadError(
                f"pattern {spec!r} produced no messages at N={nodes}"
            )
        results = []
        for name in networks:
            network = build_network(name, nodes, lanes, seed=seed)
            try:
                result = network.route_batch(
                    _fresh_messages(schedule), max_ticks=max_ticks)
            except TopologyError as exc:
                raise TopologyError(
                    f"network {name!r} cannot race at N={nodes}: {exc}"
                ) from exc
            results.append(result)
        sections.append(ArenaSection(
            pattern=pattern,
            schedule=schedule,
            results=results,
            peak_ring_load=max_ring_load(
                batch_pairs(schedule.messages()), nodes),
        ))
    return ArenaReport(
        nodes=nodes, lanes=lanes, data_flits=data_flits, seed=seed,
        rounds=rounds, networks=tuple(networks), sections=sections)


def arena_network_choices() -> list[str]:
    """Every registry name the arena accepts (CLI help)."""
    return sorted(PAPER_NETWORKS + EXTRA_NETWORKS)
