"""Admission control tests: the controller policy and its routing wiring."""

from __future__ import annotations

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.errors import ConfigurationError
from repro.supervision import AdmissionController
from repro.supervision.admission import ADMIT, DEFER, SHED


def msg(mid, src, dst, flits=4):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits)


def capped_ring(limit, policy, delay=16.0) -> RMBRing:
    config = RMBConfig(nodes=8, lanes=3, admission_limit=limit,
                       admission_policy=policy,
                       retry=RetryPolicy(delay=delay, jitter=0.0))
    return RMBRing(config, seed=1, trace_kinds={"shed"})


class TestController:
    def test_uncapped_admits_everything(self):
        controller = AdmissionController()
        assert not controller.enabled
        assert all(controller.decide(n) == ADMIT for n in range(100))
        assert controller.admitted == 100
        assert controller.peak_outstanding == 99

    def test_defer_verdict_at_the_cap(self):
        controller = AdmissionController(limit=2, policy="defer")
        assert controller.decide(0) == ADMIT
        assert controller.decide(1) == ADMIT
        assert controller.decide(2) == DEFER
        assert (controller.admitted, controller.deferred) == (2, 1)

    def test_shed_verdict_at_the_cap(self):
        controller = AdmissionController(limit=1, policy="shed")
        assert controller.decide(0) == ADMIT
        assert controller.decide(1) == SHED
        assert controller.shed == 1

    def test_release_gating(self):
        controller = AdmissionController(limit=2, policy="defer")
        assert controller.may_release(1)
        assert not controller.may_release(2)
        controller.note_released()
        assert controller.released == 1

    def test_summary_keys(self):
        summary = AdmissionController(limit=3).summary()
        assert summary["admission_limit"] == 3.0
        assert set(summary) == {"admission_limit", "admitted", "shed",
                                "deferred", "released", "peak_outstanding"}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(limit=0)
        with pytest.raises(ValueError):
            AdmissionController(policy="queue")


class TestConfigWiring:
    def test_config_validates_admission_fields(self):
        with pytest.raises(ConfigurationError):
            RMBConfig(nodes=8, lanes=3, admission_limit=0)
        with pytest.raises(ConfigurationError):
            RMBConfig(nodes=8, lanes=3, admission_policy="drop")

    def test_default_is_uncapped(self):
        ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=1)
        assert not ring.routing.admission.enabled
        assert ring.stats().admission is None


class TestDeferPolicy:
    def test_burst_is_held_and_eventually_all_complete(self):
        ring = capped_ring(limit=1, policy="defer")
        records = ring.submit_all(msg(i, 0, 4) for i in range(5))
        deferred = [r for r in records if r.deferred]
        assert len(deferred) == 4, "only one fits under the cap"
        # Deferred work counts as pending so drain waits for it.
        assert ring.routing.pending() == 5
        ring.drain()
        assert all(r.finished for r in records)
        admission = ring.routing.admission
        assert admission.released == 4
        assert ring.stats().deferrals == 4

    def test_outstanding_never_exceeds_the_cap(self):
        limit = 2
        ring = capped_ring(limit=limit, policy="defer")
        ring.submit_all(msg(i, 0, (i % 6) + 1) for i in range(8))
        peak = 0
        while ring.routing.pending() > 0:
            ring.run(1)
            peak = max(peak, ring.routing.outstanding(0))
        assert peak <= limit
        assert ring.routing.admission.peak_outstanding <= limit

    def test_cap_applies_per_source(self):
        ring = capped_ring(limit=1, policy="defer")
        records = ring.submit_all(msg(i, i, (i + 3) % 8) for i in range(4))
        # Four different sources: nobody is over their own cap.
        assert not any(r.deferred for r in records)
        ring.drain()
        assert all(r.finished for r in records)


class TestShedPolicy:
    def test_over_limit_burst_is_refused_not_queued(self):
        ring = capped_ring(limit=1, policy="shed")
        records = ring.submit_all(msg(i, 0, 4) for i in range(5))
        shed = [r for r in records if r.shed]
        assert len(shed) == 4
        # Shed requests are not pending: the drain only waits for the one
        # admitted message.
        assert ring.routing.pending() == 1
        ring.drain()
        assert sum(1 for r in records if r.finished) == 1
        assert all(r.injected_at is None for r in shed)

    def test_stats_account_shed_separately(self):
        ring = capped_ring(limit=1, policy="shed")
        ring.submit_all(msg(i, 0, 4) for i in range(4))
        ring.drain()
        stats = ring.stats()
        assert stats.shed == 3
        assert stats.offered == 4
        assert stats.completed == 1
        assert stats.summary()["shed"] == 3.0
        assert stats.admission["shed"] == 3.0

    def test_shed_emits_trace_entry(self):
        ring = capped_ring(limit=1, policy="shed")
        ring.submit_all(msg(i, 0, 4) for i in range(2))
        assert len(ring.trace.of_kind("shed")) == 1


class TestRetryInteraction:
    def test_awaiting_retry_counts_toward_the_cap(self):
        # Node 0's message to a blocked destination keeps retrying; with
        # limit=1 a second submission must defer until the first resolves.
        ring = capped_ring(limit=1, policy="defer", delay=4.0)
        ring.routing._rx_active[4] = ring.config.rx_ports
        first = ring.submit(msg(0, 0, 4))
        ring.run(40)
        second = ring.submit(msg(1, 0, 5))
        assert second.deferred == 1
        ring.run(40)
        assert second.injected_at is None, \
            "deferred message must wait while the first retries"
        ring.routing._rx_active[4] = 0
        ring.drain()
        assert first.finished and second.finished
