"""Statistics aggregation for RMB runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from repro.core.flits import Message
from repro.sim.monitor import Tally, TimeSeries, percentile
from repro.supervision.incidents import IncidentLog


class Outcome(Protocol):
    """What :meth:`RunStats.from_records` reads from one message's record.

    A ring's :class:`~repro.core.flits.MessageRecord` answers it, and so
    does a fabric journey (:class:`~repro.hier.fabric.FabricRecord`),
    summed or taken across its legs.
    """

    @property
    def message(self) -> Message: ...

    @property
    def finished(self) -> bool: ...

    @property
    def shed(self) -> bool: ...

    @property
    def abandoned(self) -> bool: ...

    @property
    def fault_hit(self) -> bool: ...

    @property
    def nacks(self) -> int: ...

    @property
    def retries(self) -> int: ...

    @property
    def fault_kills(self) -> int: ...

    @property
    def fault_nacks(self) -> int: ...

    @property
    def head_stall_ticks(self) -> int: ...

    @property
    def deferred(self) -> int: ...

    def latency(self) -> Optional[float]: ...

    def setup_time(self) -> Optional[float]: ...

    def recovery_time(self) -> Optional[float]: ...


@dataclass
class RunStats:
    """Summary of one simulation run, built from message records and probes.

    Attributes:
        offered: messages submitted.
        completed: messages fully delivered and torn down.
        latency: request-to-delivery times of completed messages.
        latencies: the same times as a list, in record order.
        setup: request-to-circuit-established times.
        stalls: per-message header stall tick counts.
        nacks / retries / abandoned: refusal machinery counters.
        fault_kills / fault_nacks: teardowns and refusals caused by
            injected faults (degraded-mode accounting).
        rerouted: messages that hit a fault at least once and still
            completed — the graceful-degradation success count.
        recovery: per-message time from first fault hit to eventual
            completion ("time to recover").
        shed: submissions refused outright by admission control.
        deferrals: times a submission was parked in an admission
            holding queue (one message may defer once at most, so this
            is also the count of deferred messages).
        forced_teardowns: stalled buses the watchdog Nacked back.
        incidents: the watchdog's structured incident log, when one was
            armed (what went wrong and what was done about it).
        admission: the admission controller's counter summary, when a
            cap was configured.
        utilization: time series of segment-occupancy fraction.
        live_buses: time series of concurrently live virtual-bus counts.
        throughput: sampled delivery-rate series (residual throughput
            through fault windows), when a rate meter was armed.
        duration: simulated ticks covered by the run.
    """

    offered: int = 0
    completed: int = 0
    latency: Tally = field(default_factory=lambda: Tally("latency"))
    setup: Tally = field(default_factory=lambda: Tally("setup"))
    stalls: Tally = field(default_factory=lambda: Tally("stalls"))
    nacks: int = 0
    retries: int = 0
    abandoned: int = 0
    fault_kills: int = 0
    fault_nacks: int = 0
    rerouted: int = 0
    recovery: Tally = field(default_factory=lambda: Tally("recovery"))
    shed: int = 0
    deferrals: int = 0
    forced_teardowns: int = 0
    incidents: Optional[IncidentLog] = None
    admission: Optional[dict[str, float]] = None
    flits_delivered: int = 0
    utilization: Optional[TimeSeries] = None
    live_buses: Optional[TimeSeries] = None
    throughput: Optional[TimeSeries] = None
    duration: float = 0.0
    latencies: list[float] = field(default_factory=list)

    @classmethod
    def from_records(
        cls,
        records: Iterable[Outcome],
        duration: float,
        utilization: Optional[TimeSeries] = None,
        live_buses: Optional[TimeSeries] = None,
        throughput: Optional[TimeSeries] = None,
        incidents: Optional[IncidentLog] = None,
        admission: Optional[dict[str, float]] = None,
        forced_teardowns: int = 0,
    ) -> "RunStats":
        stats = cls(duration=duration, utilization=utilization,
                    live_buses=live_buses, throughput=throughput,
                    incidents=incidents, admission=admission,
                    forced_teardowns=forced_teardowns)
        for record in records:
            stats.offered += 1
            if record.shed:
                # Never queued: nothing below applies (and a zero stall
                # sample would skew the tally).
                stats.shed += 1
                continue
            stats.nacks += record.nacks
            stats.retries += record.retries
            stats.fault_kills += record.fault_kills
            stats.fault_nacks += record.fault_nacks
            stats.stalls.add(record.head_stall_ticks)
            stats.deferrals += record.deferred
            if record.abandoned:
                stats.abandoned += 1
            if record.finished:
                stats.completed += 1
                stats.flits_delivered += record.message.total_flits
                latency = record.latency()
                if latency is not None:
                    stats.latency.add(latency)
                    stats.latencies.append(latency)
                setup = record.setup_time()
                if setup is not None:
                    stats.setup.add(setup)
                if record.fault_hit:
                    stats.rerouted += 1
                    recovery = record.recovery_time()
                    if recovery is not None:
                        stats.recovery.add(recovery)
        return stats

    @property
    def completion_rate(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    @property
    def throughput_flits_per_tick(self) -> float:
        return self.flits_delivered / self.duration if self.duration else 0.0

    def latency_percentile(self, fraction: float) -> float:
        """Latency percentile over completed messages (0 when empty)."""
        if not self.latencies:
            return 0.0
        return percentile(sorted(self.latencies), fraction)

    def mean_utilization(self) -> float:
        """Time-averaged fraction of occupied segments."""
        if self.utilization is None or len(self.utilization) == 0:
            return 0.0
        return self.utilization.time_average()

    def peak_live_buses(self) -> float:
        """Maximum concurrently live virtual buses observed."""
        if self.live_buses is None:
            return 0.0
        return self.live_buses.peak()

    def min_windowed_throughput(self) -> float:
        """Lowest sampled delivery rate (the degraded-mode trough).

        Meaningful only when a throughput rate meter was armed; returns
        0 otherwise.
        """
        if self.throughput is None or not self.throughput.values:
            return 0.0
        return min(self.throughput.values)

    def summary(self) -> dict[str, float]:
        """Flat dictionary of the headline numbers (for table rendering)."""
        return {
            "offered": float(self.offered),
            "completed": float(self.completed),
            "completion_rate": self.completion_rate,
            "mean_latency": self.latency.mean,
            "p95_latency": self.latency_percentile(0.95),
            "max_latency": self.latency.maximum if self.latency.count else 0.0,
            "mean_setup": self.setup.mean,
            "mean_stall_ticks": self.stalls.mean,
            "nacks": float(self.nacks),
            "retries": float(self.retries),
            "abandoned": float(self.abandoned),
            "fault_kills": float(self.fault_kills),
            "fault_nacks": float(self.fault_nacks),
            "rerouted": float(self.rerouted),
            "mean_recovery": self.recovery.mean,
            "shed": float(self.shed),
            "deferrals": float(self.deferrals),
            "forced_teardowns": float(self.forced_teardowns),
            "incidents": float(len(self.incidents))
            if self.incidents is not None else 0.0,
            "throughput_flits_per_tick": self.throughput_flits_per_tick,
            "mean_utilization": self.mean_utilization(),
            "peak_live_buses": self.peak_live_buses(),
            "duration": self.duration,
        }
