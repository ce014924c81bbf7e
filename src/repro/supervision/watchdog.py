"""No-progress watchdog for supervised RMB runs.

The paper's protocol is live under its stated assumptions (Theorem 1),
but a long simulation can still wedge when those assumptions are broken —
by fault plans that eat a whole column, by adversarial workloads that pin
every lane, or simply by bugs in an experimental change.  The
:class:`Watchdog` is the supervision layer's detector: a periodic probe
(one :class:`~repro.sim.kernel.Periodic` on the run's own simulator, so
checkpoints capture it like any other machinery) that runs every
:data:`PROBE_PERIOD` ticks and watches for three no-progress conditions:

``stalled_bus``
    A live virtual bus whose observable state — phase, hop count, reverse
    signal position, data flits sent — has not changed for
    :data:`STALL_WINDOW` ticks.  The watchdog tears the oldest stalled
    bus down (``force_teardown``): it is Nacked back to its source, the
    message retries and its resources free.

``retry_storm``
    A message that has accumulated :data:`RETRY_THRESHOLD` retries since
    the watchdog last reported it.  The watchdog only reports it; an armed
    :class:`~repro.resilience.recovery.RecoveryManager` acts on the
    report by forgiving the message's backoff.

``handshake_stall``
    The asynchronous odd/even handshake (paper Section 2.5) has made no
    cycle transition anywhere on the ring for :data:`HANDSHAKE_WINDOW`
    ticks.  A healthy ring transitions continuously even when idle, so
    this always indicates a broken controller mesh; the only action is
    ``report``.

Every detection is recorded as an :class:`~repro.supervision.incidents.
Incident` with the action taken, so run reports show what happened and
what was done about it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.protocol.lifecycle import lifecycle_name
from repro.sim.kernel import Periodic, Simulator
from repro.supervision.incidents import Incident, IncidentLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.cycles import CycleController
    from repro.core.routing import RoutingEngine
    from repro.obs.wiring import Observability

#: Ticks between probes.
PROBE_PERIOD = 50.0
#: Ticks a bus may show zero observable progress before the
#: ``stalled_bus`` condition trips.  It comfortably exceeds the longest
#: legitimate stall (a header waiting out a busy column).
STALL_WINDOW = 400.0
#: Retries since the last report before the ``retry_storm`` condition
#: trips.
RETRY_THRESHOLD = 8
#: Ticks without any cycle transition before the ``handshake_stall``
#: condition trips (asynchronous mode only).
HANDSHAKE_WINDOW = 800.0

#: Incident actions.
FORCE_TEARDOWN = "force_teardown"
REPORT = "report"


class Watchdog:
    """Periodic progress probe with one action per condition.

    All state lives in plain attributes and the probe is a bound method,
    so a watchdog inside a checkpointed ring restores with its timers and
    dedup history intact.

    Args:
        sim: the run's simulator (the probe rides its event queue).
        routing: the routing engine under supervision.
        controllers: the per-INC cycle controllers (asynchronous mode);
            ``None`` disables the handshake check.
        name: label prefix for the probe event.
    """

    def __init__(
        self,
        sim: Simulator,
        routing: "RoutingEngine",
        controllers: Optional[Sequence["CycleController"]] = None,
        name: str = "watchdog",
        obs: Optional["Observability"] = None,
    ) -> None:
        self.incidents = IncidentLog()
        # Incidents as first-class metrics: every detection increments a
        # (condition, action)-labelled counter when observability is armed.
        self.obs = obs
        self._obs_on = obs is not None
        self._sim = sim
        self._routing = routing
        self._controllers = list(controllers) if controllers else None
        # bus_id -> (progress signature, time it was last seen changing)
        self._bus_progress: dict[int, tuple[tuple, float]] = {}
        # message_id -> retries count at the last report
        self._retry_seen: dict[int, int] = {}
        self._handshake_mark: tuple[int, float] = (-1, sim.now)
        self._periodic: Periodic = Periodic(
            sim, PROBE_PERIOD, self._probe, label=f"{name}.probe"
        )

    def stop(self) -> None:
        """Disarm the watchdog (pending probe is cancelled)."""
        self._periodic.stop()

    # ------------------------------------------------------------------
    def _probe(self) -> None:
        now = self._sim.now
        self._check_buses(now)
        self._check_retries(now)
        self._check_handshake(now)

    def _check_buses(self, now: float) -> None:
        live: set[int] = set()
        stalled: list[tuple[float, int]] = []   # (age, bus_id), oldest first
        for bus in list(self._routing.buses.values()):
            live.add(bus.bus_id)
            signature = (bus.phase.value, len(bus.hops),
                         bus.signal_position, bus.data_sent)
            previous = self._bus_progress.get(bus.bus_id)
            if previous is None or previous[0] != signature:
                self._bus_progress[bus.bus_id] = (signature, now)
                continue
            age = now - previous[1]
            if age >= STALL_WINDOW:
                stalled.append((age, bus.bus_id))
        for bus_id in list(self._bus_progress):
            if bus_id not in live:
                del self._bus_progress[bus_id]
        if not stalled:
            return
        # One recovery per probe: tear down the *oldest* stalled bus (ties
        # break on bus id for determinism).  Freeing its segments usually
        # unwedges the rest; survivors are picked up by the next probe if
        # not.
        age, bus_id = max(stalled, key=lambda item: (item[0], -item[1]))
        bus = self._routing.buses[bus_id]
        # Incident details speak the lifecycle-FSM vocabulary
        # (repro.protocol.lifecycle), same as drain errors and livelock
        # diagnostics.
        detail = (f"no progress for {age:g} ticks in state "
                  f"{lifecycle_name(bus.phase)}")
        if self._routing.force_teardown(bus_id):
            self._report(now, "stalled_bus", f"bus#{bus_id}",
                         FORCE_TEARDOWN, detail)
        self._bus_progress.pop(bus_id, None)

    def _check_retries(self, now: float) -> None:
        for message_id, record in self._routing.records.items():
            if record.finished or record.abandoned or record.shed:
                self._retry_seen.pop(message_id, None)
                continue
            baseline = max(record.backoff_floor,
                           self._retry_seen.get(message_id, 0))
            if record.retries - baseline < RETRY_THRESHOLD:
                continue
            self._retry_seen[message_id] = record.retries
            self._report(now, "retry_storm", f"msg{message_id}", REPORT,
                         f"{record.retries} retries "
                         f"({record.nacks} nacks, {record.fault_nacks} fault "
                         f"nacks, {record.fault_kills} kills)")

    def _check_handshake(self, now: float) -> None:
        if self._controllers is None:
            return
        total = sum(controller.transitions
                    for controller in self._controllers)
        mark_total, mark_time = self._handshake_mark
        if total != mark_total:
            self._handshake_mark = (total, now)
            return
        age = now - mark_time
        if age >= HANDSHAKE_WINDOW:
            laggard = min(self._controllers, key=lambda c: c.cycle)
            self._report(now, "handshake_stall", "cycle_control", REPORT,
                         f"no cycle transition for {age:g} ticks; "
                         f"inc{laggard.index} stuck at cycle "
                         f"{laggard.cycle} ({laggard.phase.value})")
            self._handshake_mark = (total, now)

    def _report(self, now: float, condition: str, subject: str,
                action: str, detail: str) -> None:
        self.incidents.record(
            Incident(time=now, condition=condition, subject=subject,
                     action=action, detail=detail)
        )
        if self._obs_on:
            self.obs.registry.counter(
                "rmb_watchdog_incidents_total",
                help="Watchdog detections by condition and recovery action",
                condition=condition, action=action,
            ).inc()
