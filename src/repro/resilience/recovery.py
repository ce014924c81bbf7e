"""The :class:`RecoveryManager`: detect → isolate → recover, closed-loop.

The manager is a periodic supervisor (one
:class:`~repro.sim.kernel.Periodic` on the run's own simulator, so
checkpoints capture it like any other machinery) wired into three signal
sources and three actuators:

**Signals**

* fault-layer transitions — the manager registers as a listener on the
  ring's :class:`~repro.faults.inject.FaultManager` and sees every
  ``dying`` / ``dead`` / ``repair`` arc the moment it is applied;
* watchdog incidents — the structured
  :class:`~repro.supervision.incidents.Incident` log, consumed past a
  cursor so each incident is acted on at most once;
* direct observation — each probe scans live buses for hops wedged on
  DYING segments.

**Actions**

* *quarantine* (circuit breakers): a flapping segment whose breaker
  trips is held at DYING even across plan repairs; after the breaker's
  open window it is readmitted on probation (half-open) and only a quiet
  probation returns it to service.  See :mod:`repro.resilience.breaker`.
* *forced evacuation*: a bus that has sat on a DYING hop for longer than
  :data:`EVACUATION_PATIENCE` (compaction's make-before-break escape has
  clearly failed — usually because every alternative lane is packed) is
  torn down through the watchdog's FORCE_TEARDOWN arc, so the message
  retries on a fresh path that cannot include the dying segment.
* *degraded mode*: when fault transitions arrive faster than
  :data:`STORM_THRESHOLD` per :data:`STORM_WINDOW`, the manager tightens
  the ring's admission cap to :data:`DEGRADED_ADMISSION_LIMIT` so retry
  storms cannot amplify the outage; a calm window restores the
  configured cap (and flushes any requests the temporary cap deferred).
* *backoff reset*: a message the watchdog reports in a retry storm gets
  its exponential backoff forgiven, so its next attempt comes quickly.

Everything is deterministic (no RNG), picklable (bound methods and plain
instances only — the checkpoint rule), and **strictly optional**: a ring
built without ``recovery=True`` constructs none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faults.transitions import fail_target, repair_target
from repro.resilience.breaker import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.sim.kernel import Periodic, Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.invariants import InvariantMonitor
    from repro.core.routing import RoutingEngine
    from repro.core.segments import SegmentGrid
    from repro.faults.inject import FaultManager
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.wiring import Observability
    from repro.supervision.watchdog import Watchdog


#: Ticks between recovery probes.
PROBE_PERIOD = 25.0
#: Ticks a live bus may hold a DYING segment before the manager
#: force-tears it down: compaction's make-before-break evacuation gets a
#: fair chance first.
EVACUATION_PATIENCE = 64.0
#: Fault transitions within :data:`STORM_WINDOW` that enter degraded mode.
STORM_THRESHOLD = 6
#: Sliding window (ticks) for storm detection.
STORM_WINDOW = 200.0
#: Ticks without a fault transition before degraded mode exits.
CALM_WINDOW = 400.0
#: Per-INC outstanding-request cap enforced while degraded (composes with
#: a configured cap by taking the minimum).
DEGRADED_ADMISSION_LIMIT = 2


@dataclass
class RecoveryStats:
    """Counters describing what the recovery loop actually did."""

    breakers_opened: int = 0       # closed/half-open -> open transitions
    breakers_half_opened: int = 0  # open -> half-open (probe readmissions)
    breakers_closed: int = 0       # half-open -> closed (probation passed)
    quarantine_holds: int = 0      # plan repairs overridden while open
    evacuations_forced: int = 0    # wedged buses torn down for re-request
    degraded_entries: int = 0
    degraded_exits: int = 0
    deferred_flushed: int = 0      # requests released on degraded exit
    incidents_acted_on: int = 0    # retry storms whose backoff was reset

    def summary(self) -> dict[str, int]:
        return {
            "breakers_opened": self.breakers_opened,
            "breakers_half_opened": self.breakers_half_opened,
            "breakers_closed": self.breakers_closed,
            "quarantine_holds": self.quarantine_holds,
            "evacuations_forced": self.evacuations_forced,
            "degraded_entries": self.degraded_entries,
            "degraded_exits": self.degraded_exits,
            "deferred_flushed": self.deferred_flushed,
            "incidents_acted_on": self.incidents_acted_on,
        }


class RecoveryManager:
    """Closed-loop recovery supervisor for one ring.

    Args:
        sim: the run's simulator (the probe rides its event queue).
        grid: the ring's segment grid (quarantine target).
        routing: the ring's routing engine (teardown / backoff / admission
            actuators).
        monitor: optional invariant monitor; its monotonicity tracker is
            re-armed whenever the manager readmits a segment (same rule
            as a plan repair).
        watchdog: optional watchdog whose incident log is consumed.
        faults: optional fault manager to subscribe to for transitions.
        trace: optional recorder; emits ``breaker_open`` /
            ``breaker_probe`` / ``breaker_close`` / ``quarantine_hold`` /
            ``forced_evacuation`` / ``degraded_enter`` / ``degraded_exit``
            entries.
        obs: optional observability bundle (counters + pull gauges).
    """

    def __init__(
        self,
        sim: Simulator,
        grid: "SegmentGrid",
        routing: "RoutingEngine",
        monitor: Optional["InvariantMonitor"] = None,
        watchdog: Optional["Watchdog"] = None,
        faults: Optional["FaultManager"] = None,
        trace: Optional[TraceRecorder] = None,
        obs: Optional["Observability"] = None,
        name: str = "recovery",
    ) -> None:
        self.stats = RecoveryStats()
        self._sim = sim
        self._grid = grid
        self._routing = routing
        self._monitor = monitor
        self._watchdog = watchdog
        self.trace = trace
        self.obs = obs
        self._obs_on = obs is not None
        #: (segment, lane) -> breaker; created lazily on first failure.
        self.breakers: Dict[Tuple[int, int], CircuitBreaker] = {}
        #: bus_id -> time its oldest still-DYING hop was first seen.
        self._wedged_since: Dict[int, float] = {}
        #: recent fault-transition times (storm detector input).
        self._storm_times: List[float] = []
        self._last_fault_at = float("-inf")
        self.degraded = False
        self._saved_admission_limit: Optional[int] = None
        self._incident_cursor = 0
        if faults is not None:
            faults.add_listener(self)
        self._periodic = Periodic(
            sim, PROBE_PERIOD, self._probe, label=f"{name}.probe")

    def stop(self) -> None:
        """Disarm the manager (pending probe is cancelled)."""
        self._periodic.stop()

    # ------------------------------------------------------------------
    # Fault-layer listener interface (called by FaultManager)
    # ------------------------------------------------------------------
    def on_fault_transition(self, kind: str, segment: int,
                            lane: int) -> None:
        """One health arc was applied to ``(segment, lane)``.

        ``kind`` is ``"dying"``, ``"dead"`` or ``"repair"`` — the same
        vocabulary as :mod:`repro.faults.transitions`.
        """
        now = self._sim.now
        if kind == "repair":
            breaker = self.breakers.get((segment, lane))
            if breaker is not None and breaker.state == BREAKER_OPEN:
                # The plan repaired a quarantined segment: hold the
                # quarantine.  fail_target re-marks it DYING, so claims
                # keep bouncing until the breaker's probe readmits it.
                if fail_target(self._grid, segment, lane):
                    self.stats.quarantine_holds += 1
                    self._record("quarantine_hold",
                                 f"segment=({segment}, {lane})")
                    self._count("quarantine_hold")
            return
        # "dying" announcements feed both detectors; "dead" only the
        # storm detector (the breaker already counted the announcement).
        self._note_storm_event(now)
        if kind != "dying":
            return
        breaker = self.breakers.get((segment, lane))
        if breaker is None:
            breaker = CircuitBreaker()
            self.breakers[(segment, lane)] = breaker
        if breaker.record_failure(now):
            self.stats.breakers_opened += 1
            self._record("breaker_open", f"segment=({segment}, {lane})",
                         trips=breaker.trips)
            self._transition("open")

    # ------------------------------------------------------------------
    # Periodic probe
    # ------------------------------------------------------------------
    def _probe(self) -> None:
        now = self._sim.now
        self._tend_breakers(now)
        self._evacuate_wedged(now)
        self._tend_degraded_mode(now)
        if self._watchdog is not None:
            self._consume_incidents()

    # -- breakers -------------------------------------------------------
    def _tend_breakers(self, now: float) -> None:
        for target in sorted(self.breakers):
            breaker = self.breakers[target]
            if breaker.quarantine_expired(now):
                segment, lane = target
                breaker.begin_probation(now)
                self.stats.breakers_half_opened += 1
                # Readmit on probation.  repair_target is a no-op when
                # the plan has the segment legitimately failed right now;
                # in that case probation simply runs against live fire.
                if repair_target(self._grid, segment, lane):
                    self._grid.touch(segment)
                    if self._monitor is not None:
                        self._monitor.monotonicity.reset()
                self._record("breaker_probe", f"segment=({segment}, {lane})")
                self._transition("half_open")
            elif breaker.probation_expired(now):
                breaker.close()
                self.stats.breakers_closed += 1
                self._record("breaker_close",
                             f"segment=({target[0]}, {target[1]})")
                self._transition("close")

    # -- forced evacuation ---------------------------------------------
    def _evacuate_wedged(self, now: float) -> None:
        from repro.core.status import PortHealth  # local: avoids a cycle
        live: set[int] = set()
        for bus in list(self._routing.buses.values()):
            on_dying = any(
                self._grid.health(bus.segment_index(position),
                                  bus.hops[position]) is PortHealth.DYING
                for position in bus.held_hops()
            )
            if not on_dying:
                self._wedged_since.pop(bus.bus_id, None)
                continue
            live.add(bus.bus_id)
            first_seen = self._wedged_since.setdefault(bus.bus_id, now)
            if now - first_seen < EVACUATION_PATIENCE:
                continue
            if self._routing.force_teardown(bus.bus_id):
                self.stats.evacuations_forced += 1
                self._record("forced_evacuation", f"bus#{bus.bus_id}",
                             wedged_for=now - first_seen)
                self._count("forced_evacuation")
            self._wedged_since.pop(bus.bus_id, None)
        for bus_id in list(self._wedged_since):
            if bus_id not in live and bus_id not in self._routing.buses:
                del self._wedged_since[bus_id]

    # -- degraded mode --------------------------------------------------
    def _note_storm_event(self, now: float) -> None:
        self._last_fault_at = now
        cutoff = now - STORM_WINDOW
        times = self._storm_times
        times.append(now)
        if times and times[0] < cutoff:
            self._storm_times = times = [t for t in times if t >= cutoff]
        if not self.degraded and len(times) >= STORM_THRESHOLD:
            self._enter_degraded(now)

    def _tend_degraded_mode(self, now: float) -> None:
        if self.degraded and \
                now - self._last_fault_at >= CALM_WINDOW:
            self._exit_degraded(now)

    def _enter_degraded(self, now: float) -> None:
        self.degraded = True
        self.stats.degraded_entries += 1
        admission = self._routing.admission
        self._saved_admission_limit = admission.limit
        admission.limit = (DEGRADED_ADMISSION_LIMIT
                           if admission.limit is None
                           else min(admission.limit,
                                    DEGRADED_ADMISSION_LIMIT))
        self._record("degraded_enter", "admission",
                     limit=admission.limit)
        self._count("degraded_enter")

    def _exit_degraded(self, now: float) -> None:
        self.degraded = False
        self.stats.degraded_exits += 1
        admission = self._routing.admission
        admission.limit = self._saved_admission_limit
        self._saved_admission_limit = None
        if admission.limit is None:
            # With no configured cap the release machinery is disabled,
            # so anything the temporary cap parked must be flushed here
            # or it would wait forever.
            self.stats.deferred_flushed += self._routing.flush_deferred()
        self._record("degraded_exit", "admission")
        self._count("degraded_exit")

    # -- incident consumption ------------------------------------------
    def _consume_incidents(self) -> None:
        # The watchdog tears stalled buses down itself, and a handshake
        # stall has no actuator; a retry storm is only reported, so its
        # backoff is reset here.
        entries = self._watchdog.incidents.entries
        for incident in entries[self._incident_cursor:]:
            if incident.condition != "retry_storm":
                continue
            message_id = int(incident.subject.removeprefix("msg"))
            record = self._routing.records.get(message_id)
            if record is not None and not (record.finished
                                           or record.abandoned
                                           or record.shed):
                self._routing.reset_backoff(message_id)
                self.stats.incidents_acted_on += 1
                self._record("incident_action", incident.subject,
                             condition=incident.condition)
                self._count("incident_action")
        self._incident_cursor = len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def open_breakers(self) -> int:
        """Breakers currently holding a quarantine."""
        return sum(1 for breaker in self.breakers.values()
                   if breaker.state == BREAKER_OPEN)

    def half_open_breakers(self) -> int:
        """Breakers currently running a probation."""
        return sum(1 for breaker in self.breakers.values()
                   if breaker.state == BREAKER_HALF_OPEN)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _record(self, kind: str, subject: str, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self._sim.now, kind, subject, **detail)

    def _count(self, action: str) -> None:
        if self._obs_on:
            self.obs.registry.counter(
                "rmb_recovery_actions_total",
                help="Recovery-loop actions applied, by kind",
                action=action,
            ).inc()

    def _transition(self, transition: str) -> None:
        if self._obs_on:
            self.obs.registry.counter(
                "rmb_breaker_transitions_total",
                help="Circuit-breaker state transitions",
                transition=transition,
            ).inc()


class RecoveryCollector:
    """Pull collector: recovery-loop state scraped at export time.

    A plain class instance (never a closure) so a ring carrying an armed
    registry still checkpoints — the
    :class:`~repro.sim.kernel.SimClock` pickling rule.
    """

    def __init__(self, recovery: RecoveryManager,
                 registry: "MetricsRegistry") -> None:
        self._recovery = recovery
        self._degraded = registry.gauge(
            "rmb_recovery_degraded_mode",
            help="1 while admission is tightened by a fault storm")
        self._open = registry.gauge(
            "rmb_recovery_open_breakers",
            help="Segments currently quarantined by a circuit breaker")
        self._half_open = registry.gauge(
            "rmb_recovery_half_open_breakers",
            help="Segments readmitted on probation")
        self._gauges = {
            key: registry.gauge(
                f"rmb_recovery_{key}",
                help=f"Recovery-loop counter: {key.replace('_', ' ')}")
            for key in RecoveryStats().summary()
        }

    def __call__(self) -> None:
        self._degraded.set(1.0 if self._recovery.degraded else 0.0)
        self._open.set(float(self._recovery.open_breakers()))
        self._half_open.set(float(self._recovery.half_open_breakers()))
        for key, value in self._recovery.stats.summary().items():
            self._gauges[key].set(float(value))
