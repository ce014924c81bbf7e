"""RecoveryManager integration tests: the detect → isolate → recover loop.

Each scenario drives a real ring — real fault layer, real routing — and
asserts the closed-loop behaviour end to end:

* a flapping segment trips its circuit breaker, the quarantine holds
  across a plan repair, and a quiet probation readmits it; a flap on
  probation re-opens it with the quarantine doubled;
* a bus wedged on a DYING hop past ``EVACUATION_PATIENCE`` is
  force-torn-down so its message can re-request a clean path;
* a fault storm enters degraded mode (admission tightened), a calm
  window exits it, and anything the temporary cap deferred is flushed;
* the watchdog's retry-storm reports are consumed and acted on;
* the recovery loop exports its state through the metrics registry and
  survives a checkpoint round trip bit-exactly.
"""

from __future__ import annotations

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.core.status import PortHealth
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.transitions import fail_target
from repro.obs import Observability
from repro.resilience import RecoveryManager
from repro.resilience.breaker import BREAKER_OPEN, OPEN_TICKS
from repro.resilience.recovery import (
    CALM_WINDOW,
    EVACUATION_PATIENCE,
    PROBE_PERIOD,
)
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes
from repro.supervision.watchdog import REPORT


def msg(mid, src, dst, flits=4):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits)


def flap_plan(segment=2, lane=0, start=50.0, period=20.0, flaps=3,
              grace=4.0) -> FaultPlan:
    """fail/repair ``segment`` ``flaps`` times, one flap per ``period``."""
    events = []
    for flap in range(flaps):
        fail_at = start + flap * period
        events.append(FaultEvent(time=fail_at, kind=FaultKind.SEGMENT,
                                 segment=segment, lane=lane, grace=grace))
        events.append(FaultEvent(time=fail_at + period / 2,
                                 kind=FaultKind.SEGMENT, action="repair",
                                 segment=segment, lane=lane))
    return FaultPlan(tuple(events))


def flapping_ring(obs=None, watchdog=False, plan=None) -> RMBRing:
    """8x3 ring where segment (2, 0) flaps three times from t=50.

    Each flap's kill lands 4 ticks after its DYING announcement, before
    its repair.  The breaker (three failures within 400 ticks) trips on
    the third announcement at t=90; the plan's t=100 repair is
    overridden (quarantine hold); the probe readmits at t=350 and a
    256-tick probation closes the breaker at t=625.  The three DYING and
    three DEAD arcs fall within 44 ticks, so the storm detector enters
    degraded mode at t=94; 400 calm ticks later, at t=500, it exits.
    """
    config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(
        delay=4.0, jitter=0.0, max_retries=8))
    return RMBRing(config, seed=7,
                   fault_plan=flap_plan() if plan is None else plan,
                   recovery=True, watchdog=watchdog, obs=obs)


class TestBreakerQuarantine:
    def test_flapping_segment_is_quarantined_then_readmitted(self):
        ring = flapping_ring()
        records = ring.submit_all(msg(i, i, (i + 3) % 8) for i in range(8))

        # Mid-quarantine: the plan repaired (2, 0) at t=100, but the open
        # breaker held the segment at DYING.
        ring.run(150)
        assert ring.recovery.stats.breakers_opened == 1
        assert ring.recovery.stats.quarantine_holds >= 1
        assert ring.recovery.open_breakers() == 1
        assert ring.grid.health(2, 0) is PortHealth.DYING
        assert ring.recovery.degraded
        assert ring.routing.admission.limit == 2

        # Quarantine expires at t=346; a quiet probation closes it, and
        # the calm since t=94 has ended degraded mode.
        ring.run(600)
        ring.drain()
        assert ring.recovery.stats.breakers_half_opened == 1
        assert ring.recovery.stats.breakers_closed == 1
        assert ring.recovery.stats.degraded_entries == 1
        assert ring.recovery.stats.degraded_exits == 1
        assert not ring.recovery.degraded
        assert ring.routing.admission.limit is None
        assert ring.recovery.open_breakers() == 0
        assert ring.grid.health(2, 0) is PortHealth.OK
        for record in records:
            assert record.finished or record.abandoned
        ring.check_now()

    def test_traffic_survives_the_flapping(self):
        ring = flapping_ring()
        # Long messages are still in flight when the flaps begin, so the
        # segment's deaths kill some of them.
        records = ring.submit_all(msg(i, i, (i + 3) % 8, flits=80)
                                  for i in range(8))
        ring.run(750)
        ring.drain()
        assert sum(record.fault_kills for record in records) >= 1
        # Two healthy lanes remain throughout, so nothing is abandoned.
        assert all(record.finished for record in records)

    def test_flap_on_probation_reopens_with_doubled_quarantine(self):
        # A fourth flap at t=400 lands in the probation that began at
        # t=350: the breaker re-opens at once, for twice as long.
        plan = FaultPlan(flap_plan().events
                         + flap_plan(start=400.0, flaps=1).events)
        ring = flapping_ring(plan=plan)
        records = ring.submit_all(msg(i, i, (i + 3) % 8) for i in range(8))
        ring.run(450)
        breaker = ring.recovery.breakers[(2, 0)]
        assert ring.recovery.stats.breakers_opened == 2
        assert ring.recovery.stats.breakers_half_opened == 1
        assert breaker.state == BREAKER_OPEN
        assert breaker.current_open_ticks == 2 * OPEN_TICKS
        # The plan's t=410 repair is held as well.
        assert ring.recovery.stats.quarantine_holds == 2
        assert ring.grid.health(2, 0) is PortHealth.DYING

        # The doubled quarantine expires at t=912 and a quiet probation
        # closes the breaker at t=1200, forgiving the backoff.
        ring.run(800)
        ring.drain()
        assert ring.recovery.stats.breakers_half_opened == 2
        assert ring.recovery.stats.breakers_closed == 1
        assert breaker.current_open_ticks == OPEN_TICKS
        assert ring.grid.health(2, 0) is PortHealth.OK
        assert all(record.finished for record in records)


class TestForcedEvacuation:
    def test_wedged_bus_on_dying_hop_is_torn_down(self):
        # Compaction off and no header timeout: the recovery manager is
        # the only escape hatch.  A claim on a DYING segment is refused
        # outright (Nack + retreat), so the wedge needs an *occupancy*
        # blockade — fake claims on segment 4 — with the DYING hop
        # arriving afterwards, mid-path.
        config = RMBConfig(nodes=8, lanes=2, compaction_enabled=False,
                           retry=RetryPolicy(delay=8.0, jitter=0.0,
                                             max_retries=4,
                                             header_timeout=None),
                           check_level="off")
        ring = RMBRing(config, seed=1, recovery=True)
        for lane in range(2):
            ring.grid.claim(4, lane, 900 + lane)
        record = ring.submit(msg(0, 0, 6))

        # Wait for the header to wedge with hops 0..3 claimed.
        bus = None
        for _ in range(60):
            ring.run(1)
            if ring.buses:
                bus = next(iter(ring.buses.values()))
                if len(bus.hops) >= 4:
                    break
        assert bus is not None and len(bus.hops) >= 4, "bus never wedged"

        # A hop the bus is wedged *behind* not being dying, recovery must
        # stay out of it (that stall is the watchdog's department)...
        ring.run(60)
        assert ring.recovery.stats.evacuations_forced == 0
        assert bus.bus_id in ring.buses

        # ...but once a segment the bus already holds turns DYING, the
        # make-before-break escape is hopeless (compaction is off) and
        # patience starts running.
        assert fail_target(ring.grid, 2, bus.hops[2])
        wedged_id = bus.bus_id
        ring.run(EVACUATION_PATIENCE + 3 * PROBE_PERIOD)
        assert ring.recovery.stats.evacuations_forced >= 1
        assert ring.routing.forced_teardowns >= 1
        assert wedged_id not in ring.buses
        assert record.nacks >= 1

        # With the blockade gone the retry delivers on the healthy lane.
        for lane in range(2):
            ring.grid.release(4, lane, 900 + lane)
        ring.drain()
        assert record.finished
        assert ring.routing.pending() == 0

    def test_healthy_bus_is_left_alone(self):
        config = RMBConfig(nodes=8, lanes=2)
        ring = RMBRing(config, seed=1, recovery=True)
        records = ring.submit_all(msg(i, i, (i + 2) % 8) for i in range(6))
        ring.drain()
        assert ring.recovery.stats.evacuations_forced == 0
        assert all(record.finished for record in records)


class TestDegradedMode:
    @staticmethod
    def storm_ring() -> RMBRing:
        # Seven distinct segments die in quick succession around t=50:
        # their 14 DYING and DEAD arcs are well past the six within 200
        # ticks that enter degraded mode.  Each segment fails once, so no
        # breaker trips.
        events = tuple(
            FaultEvent(time=50.0 + index, kind=FaultKind.SEGMENT,
                       segment=index, lane=2, grace=4.0)
            for index in range(7)
        )
        config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(
            delay=4.0, jitter=0.0, max_retries=8))
        return RMBRing(config, seed=3, fault_plan=FaultPlan(events),
                       recovery=True)

    def test_storm_enters_and_calm_exits_degraded_mode(self):
        ring = self.storm_ring()
        ring.run(70)
        assert ring.recovery.degraded
        assert ring.recovery.stats.degraded_entries == 1
        # No configured cap: degraded mode imposes its own.
        assert ring.routing.admission.limit == 2

        # A burst submitted while degraded gets deferred past the cap,
        # more than the cap lets through before the calm window ends.
        records = ring.submit_all(msg(i, 0, 4) for i in range(32))
        assert ring.routing.admission.deferred > 0

        # Last fault transition lands by t=60; the calm window ends the
        # episode, restores the (absent) cap, and flushes the deferrals.
        ring.run(CALM_WINDOW + 2 * PROBE_PERIOD)
        assert not ring.recovery.degraded
        assert ring.recovery.stats.degraded_exits == 1
        assert ring.routing.admission.limit is None
        assert ring.recovery.stats.deferred_flushed > 0

        ring.drain()
        assert all(record.finished or record.abandoned
                   for record in records)

    def test_degraded_mode_respects_tighter_configured_cap(self):
        ring = self.storm_ring()
        ring.routing.admission.limit = 1   # operator already stricter
        ring.run(70)
        assert ring.recovery.degraded
        assert ring.routing.admission.limit == 1   # min(1, 2)
        ring.run(CALM_WINDOW + 2 * PROBE_PERIOD)
        assert not ring.recovery.degraded
        assert ring.routing.admission.limit == 1   # restored verbatim


class TestIncidentConsumption:
    def test_retry_storm_report_gets_backoff_reset(self):
        # Three fake grid claims wall off segment 2, so the message stays
        # live; the run ends long before the watchdog's stall window.
        config = RMBConfig(nodes=8, lanes=3, compaction_enabled=False,
                           retry=RetryPolicy(delay=8.0, jitter=0.0,
                                             header_timeout=None),
                           check_level="off")
        ring = RMBRing(config, seed=1, watchdog=True, recovery=True)
        for lane in range(3):
            ring.grid.claim(2, lane, 900 + lane)
        record = ring.submit(msg(0, 0, 4))
        ring.run(16)
        # Fabricate a retry-storm report for the live message (the
        # watchdog's own threshold is far off).
        from repro.supervision.incidents import Incident
        ring.watchdog.incidents.record(Incident(
            time=ring.sim.now, condition="retry_storm",
            subject=f"msg{record.message.message_id}", action=REPORT,
            detail="fabricated for test"))
        before = ring.recovery.stats.incidents_acted_on
        ring.run(PROBE_PERIOD)
        assert ring.recovery.stats.incidents_acted_on == before + 1
        # Acting twice on one incident is forbidden (cursor semantics).
        ring.run(2 * PROBE_PERIOD)
        assert ring.recovery.stats.incidents_acted_on == before + 1


class TestObservability:
    def test_recovery_state_is_exported(self):
        obs = Observability("full")
        ring = flapping_ring(obs=obs)
        ring.submit_all(msg(i, i, (i + 3) % 8) for i in range(8))
        ring.run(150)
        text = obs.prometheus_text()
        assert "rmb_recovery_open_breakers 1" in text
        assert "rmb_recovery_degraded_mode 1" in text
        assert 'rmb_breaker_transitions_total{transition="open"} 1' in text
        assert 'rmb_recovery_actions_total{action="quarantine_hold"}' in text
        ring.run(600)
        ring.drain()
        text = obs.prometheus_text()
        assert "rmb_recovery_open_breakers 0" in text
        assert "rmb_recovery_breakers_closed 1" in text
        assert "rmb_recovery_degraded_mode 0" in text
        assert "rmb_recovery_degraded_exits 1" in text


class TestCheckpointing:
    def test_roundtrip_mid_quarantine_is_bit_exact(self):
        def observables(ring):
            return (
                ring.sim.now,
                ring.stats().summary(),
                ring.recovery.stats.summary(),
                sorted((target, breaker.state, breaker.trips)
                       for target, breaker in ring.recovery.breakers.items()),
                {mid: record.completed_at
                 for mid, record in ring.routing.records.items()},
            )

        reference = flapping_ring(watchdog=True)
        reference.submit_all(msg(i, i, (i + 3) % 8) for i in range(8))
        reference.run(150)   # mid-quarantine: breaker OPEN, hold applied
        blob = save_snapshot_bytes(reference)

        restored, _meta = load_snapshot_bytes(blob)
        assert restored.recovery.open_breakers() == 1
        for ring in (reference, restored):
            ring.run(600)
            ring.drain()
        assert observables(reference) == observables(restored)
        assert restored.recovery.stats.breakers_closed == 1


class TestConfigValidation:
    def test_manager_without_optional_wiring(self):
        """Bare manager (no watchdog/faults/obs) probes without error."""
        config = RMBConfig(nodes=4, lanes=2)
        ring = RMBRing(config, seed=0)
        manager = RecoveryManager(ring.sim, ring.grid, ring.routing)
        ring.submit(msg(0, 0, 2))
        ring.drain()
        assert manager.stats.evacuations_forced == 0
        manager.stop()
