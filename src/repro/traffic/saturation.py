"""Saturation sweeps: where does a pattern's latency diverge?

For a given :class:`~repro.traffic.patterns.TrafficPattern` and arrival
process, the engine binary-searches the per-node injection rate at which
the network stops keeping up, and emits the full offered-load vs
throughput / latency curve along the way — the evaluation the paper's
own Section 3 race implies and the MIN / hierarchical-ring literature
makes explicit.

A load point is *stable* when the run drains inside its tick budget
(:data:`DRAIN_CAP_FACTOR` times the arrival window, at least 4,000
ticks), delivers at least :data:`MIN_COMPLETION` of the offered
messages, and keeps mean latency under ``LATENCY_CAP_FACTOR *
(data_flits + nodes)`` ticks.  Saturation is the highest stable rate
bracketed by the search.  Every point is a fresh, fully seeded
simulation, so curves are deterministic and bit-comparable across the
event and batch backends (the differential suite in ``tests/batch``
guarantees the two backends agree point by point).

Each point's network comes from :func:`build_rmb`, the builder
``repro run`` uses too.  On the flat event ring the engine composes with
the resilience stack (fault plans, admission control, recovery); a
feature the batch backend or a hier fabric does not model is refused by
:func:`refuse_unsupported`, by field name and ``repro`` flag
(:data:`BATCH_REFUSES`, :data:`HIER_REFUSES`), before any point runs or
is skipped as empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.config import RMBConfig, RetryPolicy
from repro.core.network import RMBRing
from repro.core.stats import RunStats
from repro.errors import ProtocolError
from repro.hier.fabric import RingFabric
from repro.hier.hier import HierRMB
from repro.traffic.patterns import TrafficPattern, pattern_schedule
from repro.traffic.workload import replay_on_ring

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.batch import BatchRing
    from repro.faults.plan import FaultPlan
    from repro.obs import Observability

#: Saturated runs retry-storm; a bounded policy keeps every point's
#: drain finite so instability shows up as lost completion, not a hang.
BOUNDED_RETRY = RetryPolicy(delay=8.0, backoff=1.4, jitter=0.5,
                            max_retries=8)

#: Ticks between utilisation probes on every network :func:`build_rmb`
#: builds.
PROBE_PERIOD = 8.0

#: Stability criteria of every load point (see the module docstring):
#: the least completed share of offered messages, the mean-latency cap
#: in ticks per ``data_flits + nodes``, and the drain budget as a
#: multiple of the arrival window.
MIN_COMPLETION = 0.99
LATENCY_CAP_FACTOR = 20.0
DRAIN_CAP_FACTOR = 10.0

#: What the batch backend does not model: each run feature it refuses,
#: by field name, with the ``repro`` flag that switches it on.
#: :func:`refuse_unsupported` is the one reader of this table and the next.
BATCH_REFUSES: dict[str, str] = {
    "asynchronous": "--asynchronous",
    "fault_plan": "--fault-plan",
    "recovery": "--recovery",
    "watchdog": "--watchdog",
    "admission_limit": "--admission-limit",
    "checkpoint_every": "--checkpoint-every",
    "obs": "--obs-level/--metrics-out/--spans-out",
    "topology": "--topology",
}

#: What a hier fabric does not yet compose with, in the same shape.
HIER_REFUSES: dict[str, str] = {
    "asynchronous": "--asynchronous",
    "fault_plan": "--fault-plan",
    "recovery": "--recovery",
    "watchdog": "--watchdog",
}


def refuse_unsupported(config: RMBConfig, backend: str = "event",
                       topology: str = "ring", *,
                       fault_plan: Optional["FaultPlan"] = None,
                       watchdog: bool = False,
                       recovery: bool = False,
                       obs: Optional["Observability"] = None,
                       checkpoint_every: Optional[float] = None) -> None:
    """Refuse what ``backend`` and ``topology`` do not model; build nothing.

    A feature the backend or topology does not model is refused by field
    and flag: :class:`~repro.batch.engine.BatchUnsupported` on the batch
    backend, :class:`ProtocolError` on a fabric, and :class:`ProtocolError`
    for an unknown backend or topology.  :func:`build_rmb` calls this
    first, and :func:`run_point` calls it before its empty-schedule
    shortcut, so a sweep whose every point is empty still refuses.
    """
    if backend not in ("event", "batch"):
        raise ProtocolError(
            f"unknown backend {backend!r}; choose 'event' or 'batch'")
    batch = backend == "batch"
    hier = topology == "hier" or topology.startswith("hier:")
    used = {
        "asynchronous": not config.synchronous,
        "fault_plan": fault_plan is not None,
        "recovery": recovery,
        "watchdog": watchdog,
        "admission_limit": config.admission_limit is not None,
        "checkpoint_every": checkpoint_every is not None,
        "obs": obs is not None,
        "topology": topology != "ring",
    }
    refuses = BATCH_REFUSES if batch else HIER_REFUSES if hier else {}
    flagged = [f"{name} ({flag})" for name, flag in refuses.items()
               if used[name]]
    if flagged:
        engine, advice = (("the batch backend", "--backend event") if batch
                          else (f"topology {topology}", "--topology ring"))
        message = (f"{engine} does not support {', '.join(flagged)}; "
                   f"use {advice}")
        if batch:
            from repro.batch.engine import BatchUnsupported
            raise BatchUnsupported(message)
        raise ProtocolError(message)
    if topology != "ring" and not hier:
        raise ProtocolError(
            f"unknown topology {topology!r}; choose 'ring', 'hier' or "
            f"'hier:MxN'")


def build_rmb(config: RMBConfig, backend: str = "event",
              topology: str = "ring", seed: int = 0, *,
              fault_plan: Optional["FaultPlan"] = None,
              watchdog: bool = False,
              recovery: bool = False,
              obs: Optional["Observability"] = None,
              checkpoint_every: Optional[float] = None,
              ) -> Union[RMBRing, "BatchRing", HierRMB]:
    """The network ``repro run`` and :func:`run_point` drive.

    Returns an event :class:`RMBRing` (``topology='ring'``), a
    :class:`~repro.batch.BatchRing` (``backend='batch'``) or a
    :class:`HierRMB` (a ``hier`` / ``hier:MxN`` spec, split over
    ``config.nodes`` with ``config`` as the member-ring template).  What
    the backend or topology does not model is refused first, by
    :func:`refuse_unsupported`.  ``checkpoint_every`` is only checked
    against the tables; the caller arms the checkpointer.
    """
    refuse_unsupported(config, backend, topology, fault_plan=fault_plan,
                       watchdog=watchdog, recovery=recovery, obs=obs,
                       checkpoint_every=checkpoint_every)
    if backend == "batch":
        from repro.batch import BatchRing
        return BatchRing(config, seed=seed, probe_period=PROBE_PERIOD)
    if topology == "ring":
        return RMBRing(config, seed=seed, probe_period=PROBE_PERIOD,
                       fault_plan=fault_plan, watchdog=watchdog,
                       recovery=recovery, obs=obs)
    from repro.networks.registry import hier_shape
    locals_count, nodes_per_local = hier_shape(topology, config.nodes)
    return HierRMB(locals=locals_count, nodes_per_local=nodes_per_local,
                   lanes=config.lanes, seed=seed, config=config,
                   probe_period=PROBE_PERIOD, obs=obs)


@dataclass
class SaturationConfig:
    """Geometry, workload shape, search bracket and run features for
    one sweep; the stability criteria are module constants."""

    nodes: int = 16
    lanes: int = 4
    data_flits: int = 4
    seed: int = 0
    duration: float = 200.0
    backend: str = "event"
    arrival: str = "bernoulli"
    #: ``"ring"`` (the flat RMB), or a hier spec (``"hier"`` /
    #: ``"hier:MxN"``): stability is then judged over the whole fabric
    #: (journey-level completion and end-to-end latency) and load points
    #: carry per-ring delivery rates.  Event backend only.
    topology: str = "ring"
    # --- search bracket ----------------------------------------------
    rate_floor: float = 0.002
    rate_ceiling: float = 0.5
    iterations: int = 6
    # --- resilience composition (event backend only) -----------------
    fault_plan: Optional["FaultPlan"] = None
    admission_limit: Optional[int] = None
    admission_policy: str = "defer"
    recovery: bool = False
    obs: Optional["Observability"] = None


@dataclass
class LoadPoint:
    """One measured point on an offered-load curve."""

    rate: float                  # offered messages / injecting node / tick
    offered: int                 # messages injected
    delivered: int
    completion_rate: float
    mean_latency: float
    p95_latency: float
    throughput: float            # delivered messages per simulated tick
    duration: float              # simulated ticks including drain
    stable: bool
    reason: str                  # "ok" or which criterion failed
    #: Per-ring delivered-legs-per-tick, for fabric topologies only
    #: (``None`` on the flat ring, keeping committed row shapes stable).
    ring_rates: Optional[dict[str, float]] = None

    def row(self) -> dict[str, Any]:
        """Flat dictionary for table rendering."""
        row = {
            "rate": round(self.rate, 5),
            "offered": self.offered,
            "delivered": self.delivered,
            "completion": round(self.completion_rate, 4),
            "mean_latency": round(self.mean_latency, 2),
            "p95_latency": round(self.p95_latency, 2),
            "throughput": round(self.throughput, 4),
            "stable": "yes" if self.stable else f"no ({self.reason})",
        }
        if self.ring_rates is not None:
            row["ring_rates"] = {name: round(rate, 5)
                                 for name, rate in self.ring_rates.items()}
        return row


@dataclass
class SaturationCurve:
    """The sweep's result: every evaluated point plus the bracket."""

    pattern: str
    backend: str
    arrival: str
    nodes: int
    lanes: int
    points: list[LoadPoint]
    saturation_rate: float       # highest rate measured stable
    unstable_rate: Optional[float]  # lowest rate measured unstable
    topology: str = "ring"

    def rows(self) -> list[dict[str, Any]]:
        return [point.row() for point in
                sorted(self.points, key=lambda p: p.rate)]

    def saturation_point(self) -> Optional[LoadPoint]:
        stable = [p for p in self.points if p.stable]
        if not stable:
            return None
        return max(stable, key=lambda p: p.rate)

    def summary(self) -> dict[str, Any]:
        """JSON-able record (the arena-smoke CI artifact shape).

        ``topology`` appears only for fabric sweeps, so flat-ring
        summaries keep the committed baseline shape byte for byte.
        """
        peak = self.saturation_point()
        extra = ({"topology": self.topology}
                 if self.topology != "ring" else {})
        return {
            **extra,
            "pattern": self.pattern,
            "backend": self.backend,
            "arrival": self.arrival,
            "nodes": self.nodes,
            "lanes": self.lanes,
            "saturation_rate": round(self.saturation_rate, 6),
            "unstable_rate": (round(self.unstable_rate, 6)
                              if self.unstable_rate is not None else None),
            "peak_throughput": (round(peak.throughput, 6)
                                if peak is not None else 0.0),
            "peak_mean_latency": (round(peak.mean_latency, 4)
                                  if peak is not None else 0.0),
            "points": self.rows(),
        }


def run_point(cfg: SaturationConfig, pattern: TrafficPattern,
              rate: float) -> LoadPoint:
    """Simulate one offered-load point and classify its stability.

    Every point runs at cycle period 2 with :data:`BOUNDED_RETRY` and
    probes every :data:`PROBE_PERIOD` ticks.
    """
    config = RMBConfig(
        nodes=cfg.nodes, lanes=cfg.lanes, cycle_period=2.0,
        retry=BOUNDED_RETRY, admission_limit=cfg.admission_limit,
        admission_policy=cfg.admission_policy, check_level="sampled")
    # Refused before the empty shortcut, which builds no network.
    refuse_unsupported(config, cfg.backend, cfg.topology,
                       fault_plan=cfg.fault_plan, recovery=cfg.recovery,
                       obs=cfg.obs)
    schedule = pattern_schedule(
        pattern, duration=cfg.duration, rate=rate,
        data_flits=cfg.data_flits, seed=cfg.seed, arrival=cfg.arrival)
    if len(schedule) == 0:
        return LoadPoint(rate=rate, offered=0, delivered=0,
                         completion_rate=1.0, mean_latency=0.0,
                         p95_latency=0.0, throughput=0.0, duration=0.0,
                         stable=True, reason="ok")
    ring = build_rmb(config, cfg.backend, cfg.topology, cfg.seed,
                     fault_plan=cfg.fault_plan, recovery=cfg.recovery,
                     obs=cfg.obs)
    if cfg.backend == "batch":
        from repro.batch import replay_on_batch
        replay_on_batch(ring, schedule)
    else:
        replay_on_ring(ring, schedule)
    drain_cap = max(4000.0, DRAIN_CAP_FACTOR * cfg.duration)
    drained = True
    ring.run(schedule.horizon() + 1.0)
    try:
        ring.drain(max_ticks=drain_cap)
    except ProtocolError:
        drained = False
    # On a fabric, stability is judged over whole journeys (completion
    # and end-to-end latency); per-ring leg rates ride along.
    stats = ring.stats()
    ring_rates: Optional[dict[str, float]] = None
    if isinstance(ring, RingFabric):
        duration = stats.duration if stats.duration > 0 else 1.0
        ring_rates = {
            name: member.routing.completed / duration
            for name, member in ring.rings.items()
        }
    point = _classify(cfg, rate, stats, drained, ring_rates=ring_rates)
    _record_obs(cfg, pattern, point)
    return point


def _classify(cfg: SaturationConfig, rate: float, stats: RunStats,
              drained: bool,
              ring_rates: Optional[dict[str, float]] = None) -> LoadPoint:
    duration = stats.duration if stats.duration > 0 else 1.0
    completion = stats.completion_rate
    mean_latency = stats.latency.mean
    cap = LATENCY_CAP_FACTOR * (cfg.data_flits + cfg.nodes)
    if not drained:
        stable, reason = False, "drain"
    elif completion < MIN_COMPLETION:
        stable, reason = False, "completion"
    elif mean_latency > cap:
        stable, reason = False, "latency"
    else:
        stable, reason = True, "ok"
    return LoadPoint(
        rate=rate,
        offered=int(stats.offered),
        delivered=int(stats.completed),
        completion_rate=completion,
        mean_latency=mean_latency,
        p95_latency=stats.latency_percentile(0.95),
        throughput=stats.completed / duration,
        duration=duration,
        stable=stable,
        reason=reason,
        ring_rates=ring_rates,
    )


def _record_obs(cfg: SaturationConfig, pattern: TrafficPattern,
                point: LoadPoint) -> None:
    """Count sweep activity in the run's metrics registry (passive)."""
    if cfg.obs is None:
        return
    registry = cfg.obs.registry
    registry.counter("rmb_traffic_points_total",
                     help="saturation load points evaluated",
                     pattern=pattern.spec).inc()
    if not point.stable:
        registry.counter("rmb_traffic_unstable_points_total",
                         help="load points classified unstable",
                         pattern=pattern.spec).inc()


def saturation_search(cfg: SaturationConfig,
                      pattern: TrafficPattern) -> SaturationCurve:
    """Bracket the stability boundary by bisection.

    Evaluates the floor and ceiling rates, then bisects ``iterations``
    times between the highest known-stable and lowest known-unstable
    rates.  Every evaluated point lands on the returned curve, so the
    caller gets the offered-load sweep for free.
    """
    points: dict[float, LoadPoint] = {}

    def evaluate(rate: float) -> LoadPoint:
        if rate not in points:
            points[rate] = run_point(cfg, pattern, rate)
        return points[rate]

    floor = evaluate(cfg.rate_floor)
    curve = SaturationCurve(
        pattern=pattern.spec, backend=cfg.backend, arrival=cfg.arrival,
        nodes=cfg.nodes, lanes=cfg.lanes, points=[],
        saturation_rate=0.0, unstable_rate=None, topology=cfg.topology)
    if not floor.stable:
        curve.points = list(points.values())
        curve.unstable_rate = cfg.rate_floor
        return curve
    low = cfg.rate_floor
    high: Optional[float] = None
    ceiling = evaluate(cfg.rate_ceiling)
    if ceiling.stable:
        low = cfg.rate_ceiling
    else:
        high = cfg.rate_ceiling
        for _ in range(cfg.iterations):
            mid = (low + high) / 2.0
            if evaluate(mid).stable:
                low = mid
            else:
                high = mid
    curve.points = list(points.values())
    curve.saturation_rate = low
    curve.unstable_rate = high
    if cfg.obs is not None:
        cfg.obs.registry.gauge(
            "rmb_traffic_saturation_rate",
            help="highest stable per-node injection rate",
            pattern=pattern.spec, backend=cfg.backend,
        ).set(curve.saturation_rate)
    return curve


def sweep_rates(cfg: SaturationConfig, pattern: TrafficPattern,
                rates: list[float]) -> SaturationCurve:
    """Evaluate an explicit rate list (no search) as a curve."""
    points = [run_point(cfg, pattern, rate) for rate in rates]
    stable = [p.rate for p in points if p.stable]
    unstable = [p.rate for p in points if not p.stable]
    return SaturationCurve(
        pattern=pattern.spec, backend=cfg.backend, arrival=cfg.arrival,
        nodes=cfg.nodes, lanes=cfg.lanes, points=points,
        saturation_rate=max(stable) if stable else 0.0,
        unstable_rate=min(unstable) if unstable else None,
        topology=cfg.topology)
