"""Regression: TwoRingRMB.stats() keeps the full single-ring surface.

The pre-fabric ``TwoRingRMB.stats()`` rebuilt a :class:`RunStats` from
per-ring records only, silently dropping the probe-backed series
(utilization, live buses, throughput) and the incident / admission
summaries that :class:`RMBRing.stats` reports.  The fabric layer owns
those now; this suite pins them so they cannot be dropped again.
"""

from __future__ import annotations

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.hier import TwoRingRMB


def _traffic(nodes):
    return [Message(i, (3 * i) % nodes, (3 * i + 5) % nodes, data_flits=8)
            for i in range(10)]


def test_probe_backed_series_survive_in_two_ring_stats():
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4), seed=2,
                         probe_period=4.0)
    network.submit_all(_traffic(16))
    network.drain()
    stats = network.stats()
    summary = stats.summary()
    # These were all stuck at zero before the fabric refactor.
    assert summary["mean_utilization"] > 0.0
    assert summary["peak_live_buses"] > 0.0
    assert summary["throughput_flits_per_tick"] > 0.0
    assert stats.utilization is not None
    assert stats.live_buses is not None
    assert stats.throughput is not None


def test_two_ring_summary_keys_match_the_flat_ring():
    ring = RMBRing(RMBConfig(nodes=16, lanes=4), seed=2, probe_period=4.0)
    ring.submit_all(_traffic(16))
    ring.drain()
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4), seed=2,
                         probe_period=4.0)
    network.submit_all(_traffic(16))
    network.drain()
    assert set(network.stats().summary()) == set(ring.stats().summary())


def test_admission_summary_is_merged_across_rings():
    config = RMBConfig(nodes=16, lanes=4, admission_limit=1,
                       admission_policy="defer")
    network = TwoRingRMB(config, seed=2)
    network.submit_all(_traffic(16))
    network.drain()
    stats = network.stats()
    assert stats.admission is not None
    # Both member rings enable admission; the merged summary sums them.
    per_ring = [ring.stats().admission for ring in network.rings.values()]
    for key, value in stats.admission.items():
        assert value == sum(summary[key] for summary in per_ring)


def test_unprobed_two_ring_reports_zero_series_not_missing_keys():
    network = TwoRingRMB(RMBConfig(nodes=16, lanes=4), seed=2)
    network.submit_all(_traffic(16))
    network.drain()
    summary = network.stats().summary()
    assert summary["mean_utilization"] == 0.0
    assert summary["peak_live_buses"] == 0.0
