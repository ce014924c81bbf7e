"""The multi-ring composite layer: named rings, route maps, hop trails.

A :class:`RingFabric` owns one shared :class:`~repro.sim.kernel.Simulator`
and builds its named :class:`~repro.core.network.RMBRing` members on it,
all on one :class:`~repro.core.network.RingClock`: one kernel event per
tick runs every member's flit tick, and one per cycle period runs their
compaction cycles.
Messages are submitted to the *fabric*; a declarative :class:`RouteMap`
turns each message into a chain of :class:`Hop` legs (one per member
ring), and the fabric drives the chain with store-and-forward
re-injection: when a leg completes on its ring (the routing engine's
``on_complete`` hook), the next leg is submitted immediately, on the
same simulator, at the current simulation time.  The original
``message_id`` is preserved on every leg, so a journey is one id with a
:class:`HopRecord` trail across rings.

A topology is a route map plus a member list ``(name, config, seed)``;
``submit`` / ``pending`` / ``drain`` / ``lifecycle_census`` / ``stats``
behave exactly like a single :class:`RMBRing`.  :meth:`RingFabric.stats`
is *message level*, as on a flat ring: a :class:`FabricRecord` answers
what :meth:`RunStats.from_records <repro.core.stats.RunStats.from_records>`
reads from a message record, so one row counts per journey, with
latency from the original ``created_at`` to the final leg's delivery.
What each member ring physically did (its legs) stays in
:meth:`RingFabric.stats_by_ring`.

Route maps and the fabric itself follow the checkpoint rules from
``repro.supervision``: no closures, plain picklable instances, bound
methods only on picklable owners.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, AbstractSet, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.core.config import RMBConfig
from repro.core.flits import Message, MessageRecord
from repro.core.network import RingClock, RMBRing
from repro.core.routing import format_census
from repro.core.stats import RunStats
from repro.errors import ProtocolError
from repro.sim.kernel import Simulator, every
from repro.sim.monitor import RateMeter, TimeSeries
from repro.supervision.incidents import IncidentLog

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.wiring import Observability

#: One member ring: its name, its config and its root seed.
Member = Tuple[str, RMBConfig, int]


@dataclass(frozen=True)
class Hop:
    """One leg of a journey: which ring, and the endpoints *on that ring*.

    Endpoints are in the member ring's own coordinate system (the route
    map owns the translation from fabric addresses — e.g. mirroring for
    a counter-rotating ring, or ``global_node = local // n`` for a
    hierarchy).  The fabric materialises the actual per-leg
    :class:`~repro.core.flits.Message` at injection time, so a hop stays
    a pure description.
    """

    ring: str
    source: int
    destination: int
    extra_destinations: Tuple[int, ...] = ()


@dataclass
class HopRecord:
    """One executed (or in-flight) leg of a journey.

    Attributes:
        ring: member ring the leg ran on.
        message: the per-leg message actually injected (ring-local
            endpoints, original ``message_id``).
        submitted_at: simulation time the leg was submitted.
        record: the member ring's live :class:`MessageRecord` for the leg.
    """

    ring: str
    message: Message
    submitted_at: float
    record: MessageRecord

    @property
    def completed_at(self) -> Optional[float]:
        return self.record.completed_at


@dataclass
class FabricRecord:
    """A journey: the original message plus its planned and executed hops.

    ``trail`` grows as legs are injected; the journey is ``finished``
    once the final leg completes.  It reads like a
    :class:`~repro.core.flits.MessageRecord`, so
    :meth:`~repro.core.stats.RunStats.from_records` aggregates journeys
    as it does ring records: counters are summed over the legs, flags
    hold if any leg's does (a leg shed at its source or at a bridge
    sheds the journey), and times run from the *original* message's
    ``created_at`` (re-injected legs carry timestamps of their own).
    """

    message: Message
    plan: Tuple[Hop, ...]
    trail: List[HopRecord] = field(default_factory=list)
    next_hop: int = 0
    completed_at: Optional[float] = None

    def _legs(self) -> List[MessageRecord]:
        return [hop.record for hop in self.trail]

    @property
    def nacks(self) -> int:
        return sum(leg.nacks for leg in self._legs())

    @property
    def retries(self) -> int:
        return sum(leg.retries for leg in self._legs())

    @property
    def fault_kills(self) -> int:
        return sum(leg.fault_kills for leg in self._legs())

    @property
    def fault_nacks(self) -> int:
        return sum(leg.fault_nacks for leg in self._legs())

    @property
    def head_stall_ticks(self) -> int:
        return sum(leg.head_stall_ticks for leg in self._legs())

    @property
    def deferred(self) -> int:
        return sum(leg.deferred for leg in self._legs())

    @property
    def shed(self) -> bool:
        return any(leg.shed for leg in self._legs())

    @property
    def abandoned(self) -> bool:
        return any(leg.abandoned for leg in self._legs())

    @property
    def fault_hit(self) -> bool:
        return any(leg.fault_hit for leg in self._legs())

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    def latency(self) -> Optional[float]:
        """Request-to-final-delivery time (``None`` until done).

        Like :meth:`MessageRecord.latency`, it stops at delivery (the
        final leg's FF reaching the destination), not at that leg's
        teardown.
        """
        if self.completed_at is None:
            return None
        delivered = self.trail[-1].record.delivered_at
        return None if delivered is None else delivered - self.message.created_at

    def setup_time(self) -> Optional[float]:
        """First leg's circuit-establishment time (``None`` until known)."""
        if not self.trail:
            return None
        return self.trail[0].record.setup_time()

    def recovery_time(self) -> Optional[float]:
        """Ticks from the first leg's fault hit to the journey's end."""
        if self.completed_at is None:
            return None
        for hop in self.trail:
            if hop.record.first_fault_at is not None:
                return self.completed_at - hop.record.first_fault_at
        return None


class RouteMap(ABC):
    """Declarative message → ring-chain mapping.

    Implementations are pure: :meth:`plan` must depend only on the
    message (same message, same plan), so journeys replay bit-exactly
    from checkpoints and the Hypothesis determinism suite can pin the
    hop trail.
    """

    @abstractmethod
    def plan(self, message: Message) -> Tuple[Hop, ...]:
        """The chain of hops that realises ``message``, in travel order.

        Raises:
            ProtocolError: if the message cannot be routed (bad address,
                unsupported multicast shape, ...).
        """


class RingFabric:
    """A composite network of named RMB rings on one shared simulator.

    The fabric builds every member ring on the shared simulator, in
    member order, registers each with the fabric's one
    :class:`~repro.core.network.RingClock` and claims each ring's
    ``on_complete`` hook.  Member order fixes the per-ring order of
    every aggregate (census rendering, per-ring stats, checkpoint
    manifests), the order in which the members' periodic events are
    scheduled and the order in which the clock runs the members' flit
    ticks and cycles, so keep it deterministic.  Subclasses
    (``TwoRingRMB``, :class:`~repro.hier.hier.HierRMB`, ``RMBLattice``)
    contribute only their geometry checks, their route map and their
    member list.

    Args:
        route_map: the fabric's message → hop-chain mapping.
        members: ``(name, config, seed)`` per member ring, in order;
            names must be unique.
        name: label for drain diagnostics and probe series.
        probe_period: sampling period for every member's utilization /
            live-bus probes and for the fabric-level probes and
            delivered-flits rate meter; ``None`` disables them all.
        obs: optional observability bundle; member metrics are labelled
            ``ring=<name>`` plus ``rmb_ring{ring=...}`` membership
            gauges, and the fabric registers the one kernel collector
            of the shared simulator.
        trace_kinds: the kinds every member's trace records; ``None``
            records every kind, and the default records nothing.
    """

    def __init__(
        self,
        route_map: RouteMap,
        members: Sequence[Member],
        *,
        name: str,
        probe_period: Optional[float] = None,
        obs: Optional["Observability"] = None,
        trace_kinds: Optional[AbstractSet[str]] = frozenset(),
    ) -> None:
        self.name = name
        self.route_map = route_map
        self.clock = RingClock(Simulator(), name)
        self.sim = self.clock.sim
        self.rings: Dict[str, RMBRing] = {}
        self.journeys: Dict[int, FabricRecord] = {}
        self.utilization = TimeSeries(f"{name}.utilization")
        self.live_buses = TimeSeries(f"{name}.live_buses")
        self.throughput_meter: Optional[RateMeter] = None
        self.obs = obs
        for ring_name, config, seed in members:
            if ring_name in self.rings:
                raise ProtocolError(
                    f"duplicate ring name {ring_name!r} in fabric {name!r}"
                )
            ring = RMBRing(
                config, seed=seed, clock=self.clock, name=ring_name,
                trace_kinds=trace_kinds, probe_period=probe_period, obs=obs,
                obs_ring_label=ring_name if obs is not None else None,
            )
            ring.routing.on_complete = self._leg_completed
            self.rings[ring_name] = ring
        if obs is not None:
            from repro.obs.wiring import KernelCollector
            obs.registry.register_collector(
                KernelCollector(self.sim, obs.registry))
        if probe_period is not None:
            every(self.sim, probe_period, self._sample_probes,
                  label=f"{name}.probes")
            self.throughput_meter = RateMeter(
                self.sim, probe_period, self._flits_delivered_total,
                name=f"{name}.throughput",
            )

    def ring(self, name: str) -> RMBRing:
        """The member ring called ``name``."""
        try:
            return self.rings[name]
        except KeyError:
            raise ProtocolError(
                f"fabric {self.name!r} has no ring {name!r} "
                f"(members: {', '.join(self.rings) or 'none'})"
            ) from None

    # ------------------------------------------------------------------
    # Workload interface (mirrors RMBRing)
    # ------------------------------------------------------------------
    def submit(self, message: Message) -> MessageRecord:
        """Plan the journey and inject its first leg; return that record.

        The returned record is the *first leg's* ring-level record; the
        whole journey is tracked in :attr:`journeys` under the message id.
        """
        if message.message_id in self.journeys:
            raise ProtocolError(
                f"duplicate fabric message id {message.message_id}"
            )
        plan = self.route_map.plan(message)
        if not plan:
            raise ProtocolError(
                f"route map produced an empty chain for message "
                f"{message.message_id}"
            )
        seen: set[str] = set()
        for hop in plan:
            if hop.ring not in self.rings:
                raise ProtocolError(
                    f"route map names unknown ring {hop.ring!r} "
                    f"(members: {', '.join(self.rings)})"
                )
            if hop.ring in seen:
                raise ProtocolError(
                    f"route map visits ring {hop.ring!r} twice for message "
                    f"{message.message_id}; a chain may use each ring once"
                )
            seen.add(hop.ring)
        journey = FabricRecord(message=message, plan=plan)
        self.journeys[message.message_id] = journey
        return self._inject_next_leg(journey)

    def submit_all(self, messages: Iterable[Message]) -> list[MessageRecord]:
        """Queue a batch of messages."""
        return [self.submit(message) for message in messages]

    def _inject_next_leg(self, journey: FabricRecord) -> MessageRecord:
        hop = journey.plan[journey.next_hop]
        ring = self.rings[hop.ring]
        original = journey.message
        # The first leg keeps the original creation time (end-to-end
        # latency starts there); re-injected legs are created "now" at
        # the bridge, which is what store-and-forward means.
        created = (original.created_at if journey.next_hop == 0
                   else self.sim.now)
        leg = Message(
            message_id=original.message_id,
            source=hop.source,
            destination=hop.destination,
            data_flits=original.data_flits,
            created_at=created,
            extra_destinations=hop.extra_destinations,
        )
        record = ring.submit(leg)
        journey.trail.append(HopRecord(
            ring=hop.ring, message=leg,
            submitted_at=self.sim.now, record=record,
        ))
        journey.next_hop += 1
        return record

    def _leg_completed(self, record: MessageRecord) -> None:
        """Routing-engine ``on_complete`` hook: chain or finish a journey.

        Runs synchronously inside the completing ring's event, exactly
        like the grid composition layer: the next leg is submitted at the
        current simulation time (store-and-forward at the bridge).
        Records for traffic submitted directly to a member ring (not
        through the fabric) are ignored.
        """
        journey = self.journeys.get(record.message.message_id)
        if journey is None or not journey.trail:
            return
        if journey.trail[-1].record is not record:
            return
        if journey.next_hop < len(journey.plan):
            self._inject_next_leg(journey)
        else:
            journey.completed_at = record.completed_at

    def run(self, ticks: float) -> None:
        """Advance the shared simulation by ``ticks``."""
        self.sim.run_ticks(ticks)

    def pending(self) -> int:
        """Requests outstanding across every member ring."""
        return sum(ring.routing.pending() for ring in self.rings.values())

    def _drain_chunk(self) -> float:
        return max(1.0, *(ring.config.cycle_period
                          for ring in self.rings.values())) * 16

    def drain(self, max_ticks: float = 1_000_000.0) -> float:
        """Run until all submitted traffic completes; return elapsed ticks.

        Raises:
            ProtocolError: if traffic fails to drain within ``max_ticks``;
                the message carries every member ring's lifecycle census.
        """
        if not self.rings:
            raise ProtocolError(f"fabric {self.name!r} has no member rings")
        start = self.sim.now
        chunk = self._drain_chunk()
        while self.pending() > 0:
            if self.sim.now - start > max_ticks:
                raise ProtocolError(
                    f"{self.name} failed to drain within {max_ticks} ticks "
                    f"({self._census_clause()})"
                )
            # Absolute chunk boundaries (not now + chunk): a run resumed
            # from a checkpoint stops at the same final time as the
            # uninterrupted run, keeping checkpoint/restore bit-exact.
            self.sim.run(until=(self.sim.now // chunk + 1) * chunk)
        return self.sim.now - start

    def _census_clause(self) -> str:
        return "; ".join(
            f"{name} {format_census(ring.routing.lifecycle_census())}"
            for name, ring in self.rings.items()
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _sample_probes(self) -> None:
        occupied = 0.0
        segments = 0
        live = 0
        for ring in self.rings.values():
            count = ring.config.nodes * ring.config.lanes
            occupied += ring.grid.utilization() * count
            segments += count
            live += ring.routing.live_bus_count()
        self.utilization.record(
            self.sim.now, occupied / segments if segments else 0.0)
        self.live_buses.record(self.sim.now, float(live))

    def _flits_delivered_total(self) -> float:
        return float(sum(ring.routing.flits_delivered
                         for ring in self.rings.values()))

    def lifecycle_census(self) -> Dict[str, int]:
        """Non-terminal lifecycle states summed across member rings."""
        census: Dict[str, int] = {}
        for ring in self.rings.values():
            for state, count in ring.routing.lifecycle_census().items():
                census[state] = census.get(state, 0) + count
        return census

    def _merged_incidents(self) -> Optional[IncidentLog]:
        logs = [ring.watchdog.incidents for ring in self.rings.values()
                if ring.watchdog is not None]
        if not logs:
            return None
        merged = IncidentLog()
        for incident in sorted(
            (entry for log in logs for entry in log),
            key=lambda incident: incident.time,
        ):
            merged.record(incident)
        return merged

    def _merged_admission(self) -> Optional[Dict[str, float]]:
        summaries = [ring.routing.admission.summary()
                     for ring in self.rings.values()
                     if ring.routing.admission.enabled]
        if not summaries:
            return None
        merged: Dict[str, float] = {}
        for summary in summaries:
            for key, value in summary.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def stats(self) -> RunStats:
        """Message-level statistics: one row per submitted journey.

        Journeys aggregate in submission order.  Utilization / live
        buses / throughput come from the fabric-level probes; incidents
        and admission summaries are merged across member rings.
        """
        for ring in self.rings.values():
            ring.routing.settle_stalls()
        return RunStats.from_records(
            self.journeys.values(),
            duration=self.sim.now,
            utilization=self.utilization,
            live_buses=self.live_buses,
            throughput=(self.throughput_meter.series
                        if self.throughput_meter is not None else None),
            incidents=self._merged_incidents(),
            admission=self._merged_admission(),
            forced_teardowns=sum(ring.routing.forced_teardowns
                                 for ring in self.rings.values()),
        )

    def stats_by_ring(self) -> Dict[str, RunStats]:
        """Each member ring's own :meth:`RMBRing.stats` (its legs), by name."""
        return {name: ring.stats() for name, ring in self.rings.items()}

    def check_now(self) -> None:
        """Run every member ring's invariant suite immediately."""
        for ring in self.rings.values():
            ring.check_now()

    def cycle_count(self) -> int:
        """Max compaction cycle index across member rings."""
        return max(ring.cycle_count() for ring in self.rings.values())
