"""Tests for fairness metrics."""

import pytest

from repro.apps import (
    fairness_report,
    jain_index,
    per_node_latencies,
    per_node_waits,
    spread,
)
from repro.core import Message, RMBConfig, RMBRing
from repro.errors import WorkloadError


class TestJainIndex:
    def test_uniform_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            jain_index([])

    def test_known_value(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36 / 42)


class TestPerNodeMetrics:
    def _loaded_ring(self):
        ring = RMBRing(RMBConfig(nodes=8, lanes=3, cycle_period=2.0), seed=0)
        for index in range(16):
            source = index % 8
            ring.submit(Message(index, source, (source + 3) % 8,
                                data_flits=12))
        ring.drain()
        return ring

    def test_waits_cover_all_sources(self):
        ring = self._loaded_ring()
        waits = per_node_waits(ring)
        assert set(waits) == set(range(8))
        assert all(value >= 0 for value in waits.values())

    def test_latencies_cover_all_sources(self):
        ring = self._loaded_ring()
        latencies = per_node_latencies(ring)
        assert set(latencies) == set(range(8))
        assert all(value > 0 for value in latencies.values())

    def test_report_keys(self):
        ring = self._loaded_ring()
        report = fairness_report(ring)
        assert 0 < report["injection_wait_fairness"] <= 1.0
        assert 0 < report["latency_fairness"] <= 1.0
        assert report["max_mean_wait"] >= report["min_mean_wait"]

    def test_symmetric_workload_is_fair(self):
        # A uniform shift from every node is perfectly symmetric; the
        # latency fairness must be essentially 1.
        ring = RMBRing(RMBConfig(nodes=8, lanes=3, cycle_period=2.0), seed=0)
        for index in range(8):
            ring.submit(Message(index, index, (index + 2) % 8,
                                data_flits=8))
        ring.drain()
        report = fairness_report(ring)
        assert report["latency_fairness"] > 0.99


class TestSpread:
    def test_spread_values(self):
        assert spread({0: 1.0, 1: 4.0}) == 3.0
        assert spread({}) == 0.0
