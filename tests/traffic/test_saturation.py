"""The saturation-sweep engine: search behaviour and composition."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.obs import Observability
from repro.traffic import (
    SaturationConfig,
    make_pattern,
    run_point,
    saturation_search,
    sweep_rates,
)

FAST = dict(nodes=8, lanes=3, data_flits=4, duration=60.0, iterations=3)


class TestRunPoint:
    def test_low_rate_is_stable(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        point = run_point(cfg, pattern, rate=0.01)
        assert point.stable and point.reason == "ok"
        assert point.delivered == point.offered > 0
        assert point.throughput > 0

    def test_overload_is_classified_not_hung(self):
        """Instability must show up as a failed criterion, never a hang
        (the bounded retry policy guarantees a finite drain)."""
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        point = run_point(cfg, pattern, rate=0.5)
        assert not point.stable
        assert point.reason in ("completion", "latency", "drain")

    def test_zero_message_point_is_trivially_stable(self):
        cfg = SaturationConfig(nodes=8, lanes=3, duration=2.0)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        point = run_point(cfg, pattern, rate=1e-6)
        assert point.stable and point.offered == 0

    def test_points_are_deterministic(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("tornado", 8, k=3, seed=4)
        assert run_point(cfg, pattern, rate=0.04) == \
            run_point(cfg, pattern, rate=0.04)

    def test_unknown_backend_rejected(self):
        cfg = SaturationConfig(backend="quantum", **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=0)
        with pytest.raises(ProtocolError, match="quantum"):
            run_point(cfg, pattern, rate=0.05)


class TestSearch:
    def test_search_brackets_the_boundary(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = saturation_search(cfg, pattern)
        assert curve.saturation_rate > 0
        assert curve.unstable_rate is not None
        assert curve.saturation_rate < curve.unstable_rate
        stable_rates = [p.rate for p in curve.points if p.stable]
        unstable_rates = [p.rate for p in curve.points if not p.stable]
        assert max(stable_rates) == curve.saturation_rate
        assert min(unstable_rates) == curve.unstable_rate
        # floor + ceiling + one point per bisection step
        assert len(curve.points) == 2 + cfg.iterations

    def test_unstable_floor_short_circuits(self):
        cfg = SaturationConfig(rate_floor=0.45, **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = saturation_search(cfg, pattern)
        assert curve.saturation_rate == 0.0
        assert curve.unstable_rate == pytest.approx(0.45)
        assert len(curve.points) == 1

    def test_stable_ceiling_needs_no_bisection(self):
        cfg = SaturationConfig(rate_ceiling=0.01, **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = saturation_search(cfg, pattern)
        assert curve.saturation_rate == pytest.approx(0.01)
        assert curve.unstable_rate is None

    def test_summary_shape(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        summary = saturation_search(cfg, pattern).summary()
        assert summary["pattern"] == "uniform"
        assert summary["backend"] == "event"
        assert summary["saturation_rate"] > 0
        assert summary["peak_throughput"] > 0
        assert len(summary["points"]) == len(set(
            point["rate"] for point in summary["points"]))

    def test_sweep_rates_evaluates_exactly_the_given_rates(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = sweep_rates(cfg, pattern, [0.01, 0.3])
        assert [p.rate for p in curve.points] == [0.01, 0.3]
        assert curve.saturation_rate == 0.01
        assert curve.unstable_rate == 0.3


class TestComposition:
    def test_fault_plan_threads_through_the_event_backend(self):
        from repro.faults import parse_spec
        plan = parse_spec("seg:1,0@10", 8, 3, seed=0)
        cfg = SaturationConfig(fault_plan=plan, **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        point = run_point(cfg, pattern, rate=0.02)
        assert point.offered > 0

    def test_admission_and_recovery_compose(self):
        cfg = SaturationConfig(admission_limit=4, admission_policy="defer",
                               recovery=True, **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        point = run_point(cfg, pattern, rate=0.02)
        assert point.stable

    def test_obs_counts_points_and_saturation_gauge(self):
        obs = Observability(level="full")
        cfg = SaturationConfig(obs=obs, **FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = saturation_search(cfg, pattern)
        total = obs.registry.counter("rmb_traffic_points_total",
                                     pattern="uniform").value
        assert total == len(curve.points)
        gauge = obs.registry.gauge("rmb_traffic_saturation_rate",
                                   pattern="uniform",
                                   backend="event").value
        assert gauge == pytest.approx(curve.saturation_rate)

    def test_observation_is_passive(self):
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        bare = run_point(SaturationConfig(**FAST), pattern, rate=0.04)
        observed = run_point(
            SaturationConfig(obs=Observability(level="full"), **FAST),
            pattern, rate=0.04)
        assert bare == observed


class TestHierTopology:
    """Sweeps over the hierarchical fabric (event backend only)."""

    HIER = dict(nodes=16, lanes=4, data_flits=4, duration=60.0,
                iterations=2, topology="hier:4x4")

    def test_low_rate_point_reports_per_ring_rates(self):
        cfg = SaturationConfig(**self.HIER)
        pattern = make_pattern("uniform", 16, k=4, seed=1)
        point = run_point(cfg, pattern, rate=0.02)
        assert point.stable and point.reason == "ok"
        assert point.ring_rates is not None
        assert set(point.ring_rates) == {
            "local0", "local1", "local2", "local3", "global"}
        assert all(rate >= 0.0 for rate in point.ring_rates.values())
        assert "ring_rates" in point.row()

    def test_load_point_records_no_member_trace(self, monkeypatch):
        # A load point reads no trace, so no member ring of a fabric
        # records one, as the flat ring records none.
        from repro.traffic import saturation

        build, built = saturation.build_rmb, []

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(saturation, "build_rmb", spy)
        cfg = SaturationConfig(**self.HIER)
        pattern = make_pattern("uniform", 16, k=4, seed=1)
        point = run_point(cfg, pattern, rate=0.02)
        assert point.offered > 0 and len(built) == 1
        members = built[0].rings.values()
        assert all(ring.trace.kinds == set() for ring in members)
        assert sum(len(ring.trace) for ring in members) == 0

    def test_curve_carries_the_topology(self):
        cfg = SaturationConfig(**self.HIER)
        pattern = make_pattern("uniform", 16, k=4, seed=1)
        curve = sweep_rates(cfg, pattern, [0.02])
        assert curve.topology == "hier:4x4"
        assert curve.summary()["topology"] == "hier:4x4"

    def test_flat_ring_row_and_summary_shapes_are_unchanged(self):
        cfg = SaturationConfig(**FAST)
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        curve = sweep_rates(cfg, pattern, [0.02])
        assert "topology" not in curve.summary()
        assert all("ring_rates" not in row for row in curve.rows())

    def test_batch_backend_refuses_hier(self):
        from repro.batch.engine import BatchUnsupported

        cfg = SaturationConfig(backend="batch", **self.HIER)
        pattern = make_pattern("uniform", 16, k=4, seed=1)
        with pytest.raises(BatchUnsupported,
                           match="does not support topology"):
            run_point(cfg, pattern, rate=0.02)

    def test_hier_refuses_the_resilience_stack(self):
        from repro.faults import parse_spec

        plan = parse_spec("seg:1,0@10", 16, 4, seed=0)
        cfg = SaturationConfig(fault_plan=plan, **self.HIER)
        pattern = make_pattern("uniform", 16, k=4, seed=1)
        with pytest.raises(ProtocolError, match="fault_plan"):
            run_point(cfg, pattern, rate=0.02)

    def test_unknown_topology_is_rejected(self):
        cfg = SaturationConfig(nodes=8, lanes=3, duration=20.0,
                               topology="torus")
        pattern = make_pattern("uniform", 8, k=3, seed=1)
        with pytest.raises(ProtocolError, match="unknown topology"):
            run_point(cfg, pattern, rate=0.05)
