"""Competitiveness of the on-line RMB protocol (experiment E16).

For a finite message batch, run the real RMB simulation and compare its
makespan with the offline bounds of :mod:`repro.analysis.offline`:

* ``ratio_vs_lower``: makespan / certified lower bound — an upper bound on
  the true competitive ratio (pessimistic for the RMB);
* ``ratio_vs_greedy``: makespan / feasible greedy schedule — comparison
  against a realisable offline plan (the fairer number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.offline import greedy_schedule, lower_bound, verify_schedule
from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing


@dataclass(frozen=True)
class CompetitivenessReport:
    """Result of one competitiveness measurement."""

    nodes: int
    lanes: int
    messages: int
    online_makespan: float
    offline_lower_bound: float
    offline_greedy_makespan: float

    @property
    def ratio_vs_lower(self) -> float:
        if self.offline_lower_bound == 0:
            return 1.0
        return self.online_makespan / self.offline_lower_bound

    @property
    def ratio_vs_greedy(self) -> float:
        if self.offline_greedy_makespan == 0:
            return 1.0
        return self.online_makespan / self.offline_greedy_makespan

    def as_dict(self) -> dict[str, float]:
        return {
            "N": self.nodes,
            "k": self.lanes,
            "messages": self.messages,
            "online": round(self.online_makespan, 1),
            "offline_LB": round(self.offline_lower_bound, 1),
            "offline_greedy": round(self.offline_greedy_makespan, 1),
            "ratio_vs_LB": round(self.ratio_vs_lower, 3),
            "ratio_vs_greedy": round(self.ratio_vs_greedy, 3),
        }


def measure_competitiveness(
    config: RMBConfig,
    messages: Sequence[Message],
    seed: int = 0,
    max_ticks: float = 2_000_000.0,
) -> CompetitivenessReport:
    """Run the batch online and offline; return the bracketing ratios."""
    ring = RMBRing(config, seed=seed)
    ring.submit_all(messages)
    online_makespan = ring.drain(max_ticks=max_ticks)

    bound = lower_bound(messages, config.nodes, config.lanes)
    schedule = greedy_schedule(messages, config.nodes, config.lanes)
    verify_schedule(schedule)
    return CompetitivenessReport(
        nodes=config.nodes,
        lanes=config.lanes,
        messages=len(messages),
        online_makespan=online_makespan,
        offline_lower_bound=bound,
        offline_greedy_makespan=schedule.makespan,
    )
