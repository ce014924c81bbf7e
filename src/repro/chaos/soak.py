"""Soak runs: sustained traffic under a chaos schedule, fully accounted.

:func:`run_soak` is the chaos harness's engine: it builds a ring with a
seeded chaos plan armed, replays a seeded traffic schedule over a long
horizon while :class:`~repro.chaos.monitors.MonitorSuite` sweeps the
invariants, then drains and settles the books.  The result carries:

* the conservation ledger — every offered message ends the run delivered,
  abandoned, shed, or (drain failure) counted as pending;
* MTTR — mean ticks from a message's first fault hit to its eventual
  completion (the :class:`~repro.core.stats.RunStats` recovery tally);
* goodput retention — delivered throughput under chaos divided by the
  same seed/schedule run on a healthy twin ring;
* every invariant violation observed, and a deterministic
  :attr:`~SoakResult.signature` so two runs of the same config can be
  checked for bit-identical behaviour (replay determinism).

On violation the failing run can be captured with the ordinary
checkpoint machinery (``snapshot_path``) for offline dissection, and the
chaos plan itself serialises to JSON — a failing schedule replays from
its spec and seed alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

from repro.chaos.monitors import MonitorSuite, Violation
from repro.chaos.schedules import parse_chaos_spec
from repro.core.config import RMBConfig
from repro.core.network import RMBRing
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.plan import FaultPlan, total_failed_segments
from repro.sim.kernel import every
from repro.sim.rng import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring

__all__ = ["SoakConfig", "SoakResult", "run_soak", "build_soak_ring"]

#: Post-horizon drain budget (ticks); running out is itself a recorded
#: violation, not an exception.
DRAIN_TICKS = 400_000.0


@dataclass(frozen=True)
class SoakConfig:
    """One soak scenario, fully determined by its fields.

    Attributes:
        nodes / lanes: ring geometry.
        ticks: traffic horizon — arrivals are generated over ``[0,
            ticks)``; the run then drains.
        rate: Bernoulli injection probability per node per tick.
        data_flits: message payload length.
        seed: root seed for the ring, the chaos plan, and the traffic.
        spec: chaos-schedule spec (see
            :func:`~repro.chaos.schedules.parse_chaos_spec`).
        recovery: arm the recovery manager on the chaos ring; False
            soaks with the loop open (faults only).
        asynchronous: run per-INC handshake cycle control instead of the
            global driver (arms the Lemma 1 skew monitor).
        monitor_period: ticks between invariant sweeps.
    """

    nodes: int = 16
    lanes: int = 4
    ticks: float = 10_000.0
    rate: float = 0.02
    data_flits: int = 8
    seed: int = 0
    spec: str = "storm:0.3@500+2000"
    recovery: bool = True
    asynchronous: bool = False
    monitor_period: float = 50.0

    def __post_init__(self) -> None:
        if self.ticks <= 0:
            raise ConfigurationError(
                f"soak ticks must be positive, got {self.ticks}")
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(
                f"soak rate must be in (0, 1], got {self.rate}")
        if self.monitor_period <= 0:
            raise ConfigurationError("monitor_period must be positive")


@dataclass
class SoakResult:
    """Everything a soak run measured, ready for reports and benches."""

    config: SoakConfig
    offered: int
    completed: int
    abandoned: int
    shed: int
    pending: int
    duration: float
    violations: List[Violation]
    mttr: Optional[float]
    rerouted: int
    goodput: float
    healthy_goodput: Optional[float]
    segments_cycled: int
    recovery_actions: Optional[dict]
    fault_stats: Optional[dict]
    signature: str

    @property
    def clean(self) -> bool:
        """True when every invariant held and every message is accounted."""
        return not self.violations and self.pending == 0

    @property
    def goodput_retention(self) -> Optional[float]:
        if self.healthy_goodput is None or self.healthy_goodput == 0.0:
            return None
        return self.goodput / self.healthy_goodput

    def summary(self) -> dict:
        data = {
            "offered": self.offered,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "shed": self.shed,
            "pending": self.pending,
            "duration": self.duration,
            "violations": len(self.violations),
            "mttr": self.mttr,
            "rerouted": self.rerouted,
            "goodput": self.goodput,
            "goodput_retention": self.goodput_retention,
            "segments_cycled": self.segments_cycled,
            "signature": self.signature,
        }
        if self.recovery_actions is not None:
            data["recovery"] = dict(self.recovery_actions)
        if self.fault_stats is not None:
            data["faults"] = dict(self.fault_stats)
        return data

    def report(self) -> str:
        lines = [
            f"soak: {self.offered} offered over {self.config.ticks:g} "
            f"ticks (N={self.config.nodes}, k={self.config.lanes}, "
            f"spec {self.config.spec!r})",
            f"  accounted: {self.completed} completed, "
            f"{self.abandoned} abandoned, {self.shed} shed, "
            f"{self.pending} pending",
            f"  duration {self.duration:g} ticks, goodput "
            f"{self.goodput:.4f} msg/tick"
            + (f" (retention {self.goodput_retention:.1%})"
               if self.goodput_retention is not None else ""),
        ]
        if self.mttr is not None:
            lines.append(f"  MTTR {self.mttr:.1f} ticks over "
                         f"{self.rerouted} fault-hit deliveries")
        if self.fault_stats:
            lines.append(
                "  faults: "
                + ", ".join(f"{key}={value}"
                            for key, value in self.fault_stats.items()))
        if self.recovery_actions:
            acted = {key: value
                     for key, value in self.recovery_actions.items() if value}
            lines.append(
                "  recovery: "
                + (", ".join(f"{key}={value}"
                             for key, value in acted.items()) or "(idle)"))
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {violation}" for violation in self.violations)
        else:
            lines.append("  invariants: all held")
        return "\n".join(lines)


def build_soak_ring(
    config: SoakConfig,
    plan: Optional[FaultPlan] = None,
) -> RMBRing:
    """The ring a soak runs on; ``plan=None`` builds the healthy twin."""
    rmb = RMBConfig(
        nodes=config.nodes,
        lanes=config.lanes,
        synchronous=not config.asynchronous,
        check_level="sampled",
    )
    return RMBRing(
        rmb,
        seed=config.seed,
        fault_plan=plan,
        recovery=config.recovery and plan is not None,
        name="soak",
    )


def _settle(ring: RMBRing, suite: Optional[MonitorSuite]) -> None:
    """Drain the ring, folding a drain failure into the violation log."""
    try:
        ring.drain(max_ticks=DRAIN_TICKS)
    except ProtocolError as exc:
        if suite is None:
            raise
        suite.violations.append(Violation(
            time=ring.sim.now, monitor="drain", detail=str(exc)))


def _signature(ring: RMBRing, violations: List[Violation]) -> str:
    """Deterministic digest of the run's observable outcome.

    Two runs of the same :class:`SoakConfig` must produce the same
    signature — the replay-determinism check the chaos-smoke CI job
    enforces.  Hashes every record's terminal bookkeeping plus the
    violation log.
    """
    digest = hashlib.sha256()
    digest.update(f"t={ring.sim.now!r}".encode())
    for message_id in sorted(ring.routing.records):
        record = ring.routing.records[message_id]
        digest.update(
            (f"{message_id}:{record.completed_at!r}:"
             f"{record.abandoned}:{record.shed}:{record.retries}:"
             f"{record.fault_kills}:{record.fault_nacks}").encode())
    for violation in violations:
        digest.update(str(violation).encode())
    return digest.hexdigest()


def run_soak(config: SoakConfig,
             healthy_baseline: bool = True,
             snapshot_path: Optional[str] = None) -> SoakResult:
    """Execute one soak scenario end to end.

    Args:
        config: the scenario.
        healthy_baseline: also run the same seed and schedule on a
            fault-free twin to price the goodput retention (skippable for
            cheap smoke runs).
        snapshot_path: when given and any invariant is violated, the
            failing ring is checkpointed here for offline dissection.
    """
    plan = parse_chaos_spec(config.spec, config.nodes, config.lanes,
                            seed=config.seed)
    schedule = bernoulli_schedule(
        config.nodes, int(config.ticks), config.rate, config.data_flits,
        RandomStream(config.seed, name="soak-traffic"),
    )

    ring = build_soak_ring(config, plan=plan)
    suite = MonitorSuite(ring)
    every(ring.sim, config.monitor_period, suite.check, label="soak.monitor")
    replay_on_ring(ring, schedule)
    ring.run(config.ticks)
    _settle(ring, suite)
    suite.check()
    suite.check_structural()

    stats = ring.stats()
    pending = ring.routing.pending()
    duration = ring.sim.now
    goodput = stats.completed / duration if duration > 0 else 0.0
    segments_cycled = total_failed_segments(plan, config.nodes, config.lanes)
    if snapshot_path is not None and suite.violations:
        from repro.supervision.checkpoint import save_snapshot
        save_snapshot(snapshot_path, ring,
                      meta={"soak_spec": config.spec,
                            "seed": config.seed,
                            "violations": len(suite.violations)})

    healthy_goodput: Optional[float] = None
    if healthy_baseline:
        twin = build_soak_ring(config, plan=None)
        replay_on_ring(twin, schedule)
        twin.run(config.ticks)
        _settle(twin, None)
        twin_duration = twin.sim.now
        healthy_goodput = (twin.stats().completed / twin_duration
                           if twin_duration > 0 else 0.0)

    return SoakResult(
        config=config,
        offered=stats.offered,
        completed=stats.completed,
        abandoned=stats.abandoned,
        shed=stats.shed,
        pending=pending,
        duration=duration,
        violations=list(suite.violations),
        mttr=(stats.recovery.mean if stats.recovery.count else None),
        rerouted=stats.rerouted,
        goodput=goodput,
        healthy_goodput=healthy_goodput,
        segments_cycled=segments_cycled,
        recovery_actions=(ring.recovery.stats.summary()
                          if ring.recovery is not None else None),
        fault_stats=(ring.faults.stats.summary()
                     if ring.faults is not None else None),
        signature=_signature(ring, suite.violations),
    )
