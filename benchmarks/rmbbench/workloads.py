"""The four rmbbench workloads and the job each one repeats.

Every workload is open-loop in simulated time: the Bernoulli arrival
schedule is generated from the job seed *before* the network is built, so
the offered load never depends on network state, and latency counts from
each message's scheduled arrival.  A workload is a fixed list of
``jobs`` equal-shaped jobs; job ``j`` of a run with seed ``s`` uses job
seed ``s + j`` for both the schedule and the network.

The simulator is driven only through public constructors and the
``run`` / ``drain`` surface; results are read from message records,
``sim.events_executed`` and the engines' stats objects.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.batch import BatchRing, replay_on_batch
from repro.core import RMBConfig, RMBRing
from repro.hier import GLOBAL_RING, HierRMB
from repro.sim import RandomStream
from repro.traffic import (
    bernoulli_schedule,
    make_pattern,
    pattern_schedule,
    replay_on_fabric,
    replay_on_ring,
)

#: Periods shared by every workload (the E28 convention).
CYCLE_PERIOD = 2.0
PROBE_PERIOD = 16.0
DATA_FLITS = 8
#: Drain cap in simulated ticks; E28 drains in 133,600.
DRAIN_CAP = 2_000_000

#: One message, as digested: (id, src, dst, submitted, established,
#: delivered, retries).  Hier rows are journeys: fabric endpoints, the
#: first leg's establishment, the last leg's delivery, retries summed.
Row = Tuple[int, int, int, float, Optional[float], Optional[float], int]


@dataclass
class JobResult:
    """What one job produced: outputs, simulated counts, host times."""

    seed: int
    scheduled: int           # messages in the arrival schedule
    offered: int             # messages the network holds a record for
    completed: int
    digest: str
    makespan: float          # simulated time when the drain finished
    latencies: List[float]   # request -> delivery, completed messages
    counts: Dict[str, float]
    build_s: float           # process CPU seconds per phase
    schedule_s: float
    replay_s: float
    run_s: float             # run + drain
    wall_s: float            # the whole job, perf_counter

    @property
    def setup_s(self) -> float:
        return self.build_s + self.schedule_s + self.replay_s

    @property
    def failed(self) -> int:
        return self.offered - self.completed


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a network, a traffic shape, a job count.

    ``pattern == "uniform"`` draws arrivals with E28's generator
    (``bernoulli_schedule`` on the ``"perf"`` stream), so job seed 7 of
    the overload workloads is the E28 job byte for byte; other patterns
    go through :func:`repro.traffic.pattern_schedule`.
    """

    name: str
    why: str
    backend: str            # "event" or "batch"
    topology: str           # "ring" or "hier:LxN"
    nodes: int              # ring nodes, or fabric addresses for hier
    pattern: str
    rate: float             # messages per node per tick
    window: int             # arrival window in ticks, then drain
    jobs: int
    warmup_ticks: int       # simulated ticks of the untimed warm-up
    lanes: int = 4

    def params(self) -> Dict[str, Any]:
        return {
            "backend": self.backend, "topology": self.topology,
            "nodes": self.nodes, "lanes": self.lanes,
            "pattern": self.pattern, "rate": self.rate,
            "data_flits": DATA_FLITS, "window_ticks": self.window,
            "jobs": self.jobs, "cycle_period": CYCLE_PERIOD,
            "probe_period": PROBE_PERIOD, "check_level": "sampled",
            "retry": "default RetryPolicy (unlimited retries)",
            "warmup_ticks": self.warmup_ticks,
        }

    @property
    def hier(self) -> bool:
        return self.topology.startswith("hier:")

    def schedule(self, seed: int) -> Any:
        if self.pattern == "uniform":
            rng = RandomStream(seed, name="perf")
            return bernoulli_schedule(self.nodes, self.window, self.rate,
                                      DATA_FLITS, rng)
        pattern = make_pattern(self.pattern, self.nodes, seed=seed)
        return pattern_schedule(pattern, self.window, self.rate,
                                DATA_FLITS, seed)

    def network(self, seed: int) -> Any:
        if self.hier:
            locals_count, per_local = map(int, self.topology[5:].split("x"))
            template = RMBConfig(nodes=per_local, lanes=self.lanes,
                                 cycle_period=CYCLE_PERIOD,
                                 check_level="sampled")
            return HierRMB(locals=locals_count, nodes_per_local=per_local,
                           lanes=self.lanes, seed=seed, config=template,
                           probe_period=PROBE_PERIOD)
        config = RMBConfig(nodes=self.nodes, lanes=self.lanes,
                           cycle_period=CYCLE_PERIOD, check_level="sampled")
        if self.backend == "batch":
            return BatchRing(config, seed=seed, probe_period=PROBE_PERIOD)
        return RMBRing(config, seed=seed, trace_kinds=set(),
                       probe_period=PROBE_PERIOD)

    def replay(self, network: Any, schedule: Any) -> None:
        if self.backend == "batch":
            replay_on_batch(network, schedule)
        elif self.hier:
            replay_on_fabric(network, schedule)
        else:
            replay_on_ring(network, schedule)

    def run_job(self, seed: int, tracer: Any) -> JobResult:
        """Generate, build, replay, run to drain, and digest one job.

        ``tracer.span`` brackets each phase; with the null tracer of the
        untraced pass the brackets cost nothing measurable.
        """
        span = tracer.span
        cpu = time.process_time
        wall_start = time.perf_counter()
        with span("bench.job"):
            start = cpu()
            with span("traffic.schedule"):
                schedule = self.schedule(seed)
            scheduled = cpu()
            with span("network.build"):
                network = self.network(seed)
            built = cpu()
            with span("traffic.replay"):
                self.replay(network, schedule)
            replayed = cpu()
            with span("bench.run"):
                network.run(self.window)
                network.drain(max_ticks=DRAIN_CAP)
            ran = cpu()
            with span("bench.collect"):
                rows, counts = self.collect(network)
                makespan = float(network.now if self.backend == "batch"
                                 else network.sim.now)
                result = JobResult(
                    seed=seed,
                    scheduled=len(schedule),
                    offered=len(rows),
                    completed=sum(1 for row in rows if row[5] is not None),
                    digest=digest(rows, makespan),
                    makespan=makespan,
                    latencies=[row[5] - row[3] for row in rows
                               if row[5] is not None],
                    counts=counts,
                    build_s=built - scheduled,
                    schedule_s=scheduled - start,
                    replay_s=replayed - built,
                    run_s=ran - replayed,
                    wall_s=0.0,
                )
        result.wall_s = time.perf_counter() - wall_start
        return result

    def warm_up(self, seed: int) -> None:
        """Untimed: build and replay job ``seed``, run ``warmup_ticks``
        (no drain), so first-call costs (bytecode specialisation,
        allocator growth) land outside the timed pass."""
        schedule = self.schedule(seed)
        network = self.network(seed)
        self.replay(network, schedule)
        network.run(self.warmup_ticks)

    def collect(self, network: Any) -> Tuple[List[Row], Dict[str, float]]:
        """Per-message rows plus the job's simulated layer counts."""
        counts: Dict[str, float] = {}
        if self.backend == "batch":
            rows, retries, stalls = _ring_rows(network.records.values())
            counts["events"] = network.equivalent_events("sampled")
            counts["compaction_passes"] = network.compaction_stats.cycles_run
            counts["compaction_moves"] = network.compaction_stats.moves
            counts["invariant_checks"] = 0
            counts["probe_samples"] = len(network.utilization)
            counts["trace_records"] = 0
            counts["legs"] = len(rows)
            counts["global_legs"] = 0
            return rows, _finish_counts(counts, retries, stalls)
        if self.hier:
            rows, retries, stalls = _journey_rows(network.journeys.values())
            rings = list(network.rings.values())
            trails = [journey.trail for journey in network.journeys.values()]
            counts["legs"] = sum(len(trail) for trail in trails)
            counts["global_legs"] = sum(1 for trail in trails for hop in trail
                                        if hop.ring == GLOBAL_RING)
            fabric_probes = len(network.utilization)
        else:
            rows, retries, stalls = _ring_rows(network.routing.records.values())
            rings = [network]
            counts["legs"] = len(rows)
            counts["global_legs"] = 0
            fabric_probes = 0
        counts["events"] = network.sim.events_executed
        counts["compaction_passes"] = sum(r.compaction.stats.cycles_run
                                          for r in rings)
        counts["compaction_moves"] = sum(r.compaction.stats.moves
                                         for r in rings)
        counts["invariant_checks"] = sum(r.monitor.checks_run for r in rings
                                         if r.monitor is not None)
        counts["probe_samples"] = fabric_probes + sum(len(r.utilization)
                                                      for r in rings)
        counts["trace_records"] = sum(len(r.trace) for r in rings)
        return rows, _finish_counts(counts, retries, stalls)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ring_local",
        why=("healthy flat ring below the knee: compaction leads host "
             "time and headers rarely stall"),
        backend="event", topology="ring", nodes=256, pattern="local:8",
        rate=0.015, window=2000, jobs=8, warmup_ticks=200),
    Workload(
        name="ring_overload",
        why=("the E28 job, 10x past saturation: the stall and retry path "
             "in RoutingEngine does most of the work"),
        backend="event", topology="ring", nodes=64, pattern="uniform",
        rate=0.02, window=400, jobs=3, warmup_ticks=4000),
    Workload(
        name="batch_overload",
        why=("E28-shaped jobs on BatchRing: the only workload that runs "
             "the batch backend's scalar loops"),
        backend="batch", topology="ring", nodes=64, pattern="uniform",
        rate=0.02, window=400, jobs=16, warmup_ticks=4000),
    Workload(
        name="hier_local",
        why=("8x8 HierRMB fabric: journey planning, bridge re-injection "
             "and the heaviest kernel dispatch"),
        backend="event", topology="hier:8x8", nodes=64, pattern="local:4",
        rate=0.02, window=3000, jobs=8, warmup_ticks=300),
)}


def digest(rows: Iterable[Row], makespan: float) -> str:
    """sha256 over the sorted per-message rows plus the makespan."""
    hasher = hashlib.sha256()
    for row in sorted(rows):
        hasher.update((",".join(repr(value) for value in row) + "\n")
                      .encode())
    hasher.update(f"makespan={makespan!r}\n".encode())
    return hasher.hexdigest()


def _ring_rows(records: Iterable[Any]) -> Tuple[List[Row], int, int]:
    rows: List[Row] = []
    retries = stalls = 0
    for record in records:
        message = record.message
        rows.append((message.message_id, message.source, message.destination,
                     message.created_at, record.established_at,
                     record.delivered_at if record.finished else None,
                     record.retries))
        retries += record.retries
        stalls += record.head_stall_ticks
    return rows, retries, stalls


def _journey_rows(journeys: Iterable[Any]) -> Tuple[List[Row], int, int]:
    rows: List[Row] = []
    retries = stalls = 0
    for journey in journeys:
        message = journey.message
        legs = [hop.record for hop in journey.trail]
        leg_retries = sum(leg.retries for leg in legs)
        rows.append((message.message_id, message.source, message.destination,
                     message.created_at, legs[0].established_at,
                     legs[-1].delivered_at if journey.finished else None,
                     leg_retries))
        retries += leg_retries
        stalls += sum(leg.head_stall_ticks for leg in legs)
    return rows, retries, stalls


def _finish_counts(counts: Dict[str, float], retries: int,
                   stalls: int) -> Dict[str, float]:
    counts["retries"] = retries
    counts["stall_ticks"] = stalls
    return {key: float(value) for key, value in counts.items()}
