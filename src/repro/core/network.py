"""User-facing facade: a single RMB ring.

:class:`RMBRing` assembles the full machine — segment grid, routing engine,
compaction engine, cycle control (global counter in synchronous mode, or
per-INC handshake controllers on independent skewed clocks in asynchronous
mode), invariant monitoring, and measurement probes — on one simulator.
Multi-ring networks compose rings in :mod:`repro.hier`; the rings on one
simulator share one :class:`RingClock`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable, Optional

from repro.core.compaction import CompactionEngine
from repro.core.config import RMBConfig
from repro.core.cycles import CycleController, GlobalCycleDriver, wire_ring
from repro.core.flits import Message, MessageRecord
from repro.core.invariants import InvariantMonitor
from repro.core.routing import RoutingCensus, RoutingEngine, format_census
from repro.core.segments import SegmentGrid
from repro.core.stats import RunStats
from repro.core.virtual_bus import VirtualBus
from repro.errors import ProtocolError
from repro.sim.clock import skewed_domains
from repro.sim.kernel import SimClock, SimScheduler, Simulator, every
from repro.sim.monitor import RateMeter, TimeSeries
from repro.sim.rng import SeedSequence
from repro.sim.trace import TraceRecorder
from repro.supervision.watchdog import Watchdog

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> faults cycle
    from repro.faults.plan import FaultPlan
    from repro.obs.wiring import Observability
    from repro.resilience.recovery import RecoveryManager


class _Fanout(list):
    """The callbacks one periodic event runs, in order."""

    def __call__(self) -> None:
        for callback in self:
            callback()


class RingClock:
    """The flit tick and compaction cycles of every ring on one simulator.

    One kernel event per tick runs every registered ring's flit tick,
    and one per cycle runs the cycle of every synchronous ring with that
    ``cycle_period``, both in registration order (DESIGN.md §9 P9).  A
    ring registers where it used to schedule its own cycle and flit
    events, so a one-ring clock pushes them at the same queue positions,
    labelled ``{name}.cycle`` and ``{name}.flit``.  Asynchronous rings
    keep their per-INC clock domains; only their flit tick joins.  The
    clock holds plain picklable objects and bound methods only, so it
    checkpoints with the run.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._flits = _Fanout()
        self._cycles: dict[float, _Fanout] = {}

    def register(self, ring: "RMBRing") -> None:
        """Join ``ring``'s cycle (if synchronous) and flit tick."""
        driver = ring._global_driver
        if driver is not None:
            period = ring.config.cycle_period
            cycle = self._cycles.get(period)
            if cycle is None:
                cycle = self._cycles[period] = _Fanout()
                every(self.sim, period, cycle, label=f"{self.name}.cycle")
            cycle.append(driver.tick)
        if not self._flits:
            every(self.sim, 1.0, self._flits, label=f"{self.name}.flit")
        self._flits.append(ring.routing.flit_tick)


class RMBRing:
    """A complete, runnable RMB ring.

    Args:
        config: design parameters.
        seed: root seed for all stochastic elements (clock skew, retry
            jitter); two rings built with equal arguments behave
            identically.
        clock: the :class:`RingClock` (and with it the simulator) this
            ring shares with others, as a ring fabric's members do; a
            private one is created when omitted.
        trace_kinds: the kinds :attr:`trace` records; ``None`` records
            every kind.  By default it records nothing, so only a caller
            that reads the trace pays for it.
        probe_period: sampling period for the utilisation / live-bus
            probes (and, with a fault plan, the residual-throughput rate
            meter); ``None`` disables them.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`; when
            given, a :class:`~repro.faults.inject.FaultManager` is built
            and armed so the plan's outages fire during the run.
        watchdog: when True, a no-progress
            :class:`~repro.supervision.watchdog.Watchdog` is armed on the
            run's simulator and its incidents flow into :meth:`stats`.
        recovery: when True, a
            :class:`~repro.resilience.recovery.RecoveryManager` is armed —
            circuit breakers quarantine flapping segments, wedged buses
            are force-evacuated, fault storms tighten admission (degraded
            mode), and the watchdog's retry storms get their backoff
            reset.  Off by default: without it, results are bit-identical
            to the pre-recovery tree.
        name: label prefix for trace subjects and clock names.
        obs_ring_label: set by a :class:`~repro.hier.fabric.RingFabric`
            when this ring is a fabric member: the ring's state
            collectors are registered with a ``ring=<label>`` gauge
            label (so members sharing one registry don't collide), a
            ``rmb_ring{ring=<label>}`` info gauge marks membership, and
            the kernel collector is skipped (the fabric registers one
            for the shared simulator).  ``None`` (the default) keeps the
            unlabelled single-ring wiring bit-identical.
    """

    def __init__(
        self,
        config: RMBConfig,
        seed: int = 0,
        clock: Optional[RingClock] = None,
        trace_kinds: Optional[AbstractSet[str]] = frozenset(),
        probe_period: Optional[float] = None,
        fault_plan: Optional["FaultPlan"] = None,
        watchdog: bool = False,
        recovery: bool = False,
        obs: Optional["Observability"] = None,
        name: str = "rmb",
        obs_ring_label: Optional[str] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.clock = clock if clock is not None else RingClock(
            Simulator(), name)
        self.sim = self.clock.sim
        self.trace = TraceRecorder(kinds=trace_kinds)
        self.seeds = SeedSequence(seed)
        self.grid = SegmentGrid(config.nodes, config.lanes)
        self.buses: dict[int, VirtualBus] = {}
        self.obs = obs
        self.routing = RoutingEngine(
            config,
            self.grid,
            self.buses,
            now=SimClock(self.sim),
            schedule=SimScheduler(self.sim, label=f"{name}.retry"),
            rng=self.seeds.stream("retry"),
            trace=self.trace,
            obs=obs,
        )
        # Livelock reports from the kernel name protocol states, not just
        # event labels, via the routing engine's lifecycle census.
        self.sim.add_diagnostic(RoutingCensus(self.routing))
        self.compaction = CompactionEngine(
            config, self.grid, self.buses,
            trace=self.trace, now=SimClock(self.sim), obs=obs,
        )
        self.controllers: Optional[list[CycleController]] = None
        self._global_driver: Optional[GlobalCycleDriver] = None
        self._build_cycle_machinery()
        self.clock.register(self)
        level = config.check_level
        self.monitor: Optional[InvariantMonitor] = None
        if level != "off":
            self.monitor = InvariantMonitor(
                self.grid, self.buses, controllers=self.controllers
            )
            # "sampled" stretches the monitor period 16x; the checks are
            # pure observers, so only bug-detection latency changes.
            period = config.cycle_period * (16 if level == "sampled" else 1)
            every(self.sim, period, self.monitor.check,
                  label=f"{name}.invariants")
        self.utilization = TimeSeries(f"{name}.utilization")
        self.live_buses = TimeSeries(f"{name}.live_buses")
        if probe_period is not None:
            every(self.sim, probe_period, self._sample_probes,
                  label=f"{name}.probes")
        self.faults = None
        self.throughput_meter: Optional[RateMeter] = None
        if fault_plan is not None:
            from repro.faults.inject import FaultManager
            self.faults = FaultManager(
                fault_plan,
                sim=self.sim,
                grid=self.grid,
                routing=self.routing,
                compaction=self.compaction,
                monitor=self.monitor,
                trace=self.trace,
                obs=obs,
            )
            self.faults.arm()
            if probe_period is not None:
                self.throughput_meter = RateMeter(
                    self.sim, probe_period,
                    self._flits_delivered_total,
                    name=f"{name}.throughput",
                )
        self.watchdog: Optional[Watchdog] = None
        if watchdog:
            self.watchdog = Watchdog(
                self.sim, self.routing, controllers=self.controllers,
                name=f"{name}.watchdog", obs=obs,
            )
        self.recovery: Optional["RecoveryManager"] = None
        if recovery:
            from repro.resilience.recovery import RecoveryManager
            self.recovery = RecoveryManager(
                self.sim,
                self.grid,
                self.routing,
                monitor=self.monitor,
                watchdog=self.watchdog,
                faults=self.faults,
                trace=self.trace,
                obs=obs,
                name=f"{name}.recovery",
            )
        if obs is not None:
            # Pull collectors run only at export/report time (zero
            # run-time cost).
            from repro.obs.wiring import (
                CompactionCollector,
                KernelCollector,
                RingStateCollector,
            )
            registry = obs.registry
            if obs_ring_label is None:
                registry.register_collector(
                    KernelCollector(self.sim, registry))
            else:
                registry.gauge(
                    "rmb_ring", help="Fabric member ring (1 = present)",
                    ring=obs_ring_label,
                ).set(1.0)
            registry.register_collector(
                RingStateCollector(self.routing, self.grid, registry,
                                   ring=obs_ring_label))
            registry.register_collector(
                CompactionCollector(self.compaction, registry,
                                    ring=obs_ring_label))
            if self.recovery is not None:
                from repro.resilience.recovery import RecoveryCollector
                registry.register_collector(
                    RecoveryCollector(self.recovery, registry))

    def _build_cycle_machinery(self) -> None:
        config = self.config
        if config.synchronous:
            self._global_driver = GlobalCycleDriver(
                self.compaction.global_pass)
        else:
            controllers = [
                CycleController(i, self.compaction.inc_pass, trace=self.trace)
                for i in range(config.nodes)
            ]
            wire_ring(controllers)
            # Each INC evaluates its handshake FSM several times per
            # nominal cycle so a full odd/even cycle takes roughly
            # ``cycle_period`` ticks end to end (5 FSM phases per cycle).
            edge_period = config.cycle_period / 5.0
            domains = skewed_domains(
                self.sim,
                config.nodes,
                edge_period,
                rng=self.seeds.stream("clocks"),
                max_drift=config.clock_drift,
                max_jitter_fraction=config.clock_jitter_fraction,
            )
            for controller, domain in zip(controllers, domains):
                controller.attach_clock(domain)
                domain.start()
            self.controllers = controllers

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def submit(self, message: Message) -> MessageRecord:
        """Queue one message (see :meth:`RoutingEngine.submit`)."""
        return self.routing.submit(message)

    def submit_all(self, messages: Iterable[Message]) -> list[MessageRecord]:
        """Queue a batch of messages."""
        return [self.submit(message) for message in messages]

    def run(self, ticks: float) -> None:
        """Advance the simulation by ``ticks``."""
        self.sim.run_ticks(ticks)

    def drain(self, max_ticks: float = 1_000_000.0) -> float:
        """Run until all submitted traffic completes; return elapsed ticks.

        Raises:
            ProtocolError: if traffic fails to drain within ``max_ticks``
                (a liveness failure — Theorem 1 says this must not happen
                when capacity exists and retries are unlimited).
        """
        start = self.sim.now
        chunk = max(self.config.cycle_period, 1.0) * 16
        while self.routing.pending() > 0:
            if self.sim.now - start > max_ticks:
                raise ProtocolError(
                    f"ring failed to drain within {max_ticks} ticks; "
                    f"{self.routing.pending()} requests outstanding "
                    f"({format_census(self.routing.lifecycle_census())})"
                )
            # Advance to the next *absolute* chunk boundary (not now +
            # chunk): a run resumed from a checkpoint then stops at the
            # same final time as the uninterrupted run, which keeps
            # checkpoint/restore bit-exact (stats include duration).
            self.sim.run(until=(self.sim.now // chunk + 1) * chunk)
        return self.sim.now - start

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _sample_probes(self) -> None:
        self.utilization.record(self.sim.now, self.grid.utilization())
        self.live_buses.record(self.sim.now, float(self.routing.live_bus_count()))

    def _flits_delivered_total(self) -> float:
        return float(self.routing.flits_delivered)

    def cycle_count(self) -> int:
        """Current (max) compaction cycle index."""
        if self._global_driver is not None:
            return self._global_driver.cycle
        assert self.controllers is not None
        return max(controller.cycle for controller in self.controllers)

    def stats(self) -> RunStats:
        """Aggregate statistics for everything submitted so far."""
        self.routing.settle_stalls()
        return RunStats.from_records(
            self.routing.records.values(),
            duration=self.sim.now,
            utilization=self.utilization,
            live_buses=self.live_buses,
            throughput=(self.throughput_meter.series
                        if self.throughput_meter is not None else None),
            incidents=(self.watchdog.incidents
                       if self.watchdog is not None else None),
            admission=(self.routing.admission.summary()
                       if self.routing.admission.enabled else None),
            forced_teardowns=self.routing.forced_teardowns,
        )

    def check_now(self) -> None:
        """Run the invariant suite immediately (test helper)."""
        if self.monitor is None:
            self.monitor = InvariantMonitor(
                self.grid, self.buses, controllers=self.controllers
            )
        self.monitor.check()
