"""Soak runner acceptance: short chaos soaks end clean and replay exactly.

These are deliberately small soaks (hundreds of ticks, not the 10k-tick
benchmark run) so the suite stays fast; the properties are the same ones
the chaos-smoke CI job enforces at scale.
"""

from __future__ import annotations

import pytest

from repro.chaos import SoakConfig, build_soak_ring, run_soak
from repro.errors import ConfigurationError


def small_config(**overrides) -> SoakConfig:
    defaults = dict(
        nodes=8, lanes=3, ticks=600.0, rate=0.02, data_flits=4,
        seed=5, spec="storm:0.2@100+200%150", monitor_period=25.0,
    )
    defaults.update(overrides)
    return SoakConfig(**defaults)


class TestSoakRuns:
    def test_short_storm_soak_ends_clean(self):
        result = run_soak(small_config())
        assert result.clean, result.report()
        assert result.offered > 0
        assert result.completed + result.abandoned + result.shed \
            == result.offered
        assert result.pending == 0
        assert result.segments_cycled == round(0.2 * 8 * 3)
        assert result.goodput > 0.0
        assert result.goodput_retention is not None

    def test_flap_soak_trips_breakers(self):
        result = run_soak(small_config(spec="flap:2x4@100+24"),
                          healthy_baseline=False)
        assert result.clean, result.report()
        assert result.recovery_actions is not None
        assert result.recovery_actions["breakers_opened"] >= 1
        assert result.healthy_goodput is None   # baseline skipped

    def test_inc_outage_counts_every_lane_it_fails(self):
        # An INC outage fails all of its output segments, one per lane.
        result = run_soak(small_config(spec="incs:2@100+200"),
                          healthy_baseline=False)
        assert result.segments_cycled == 2 * 3

    def test_replay_determinism(self):
        config = small_config()
        one = run_soak(config, healthy_baseline=False)
        two = run_soak(config, healthy_baseline=False)
        assert one.signature == two.signature
        assert one.summary() == two.summary()

    def test_different_seed_different_run(self):
        one = run_soak(small_config(seed=5), healthy_baseline=False)
        two = run_soak(small_config(seed=6), healthy_baseline=False)
        assert one.signature != two.signature

    def test_soak_without_recovery_still_accounts(self):
        # Loop open: no recovery manager, conservation must still hold.
        result = run_soak(small_config(recovery=False),
                          healthy_baseline=False)
        assert result.recovery_actions is None
        assert result.completed + result.abandoned + result.shed \
            == result.offered
        assert result.pending == 0

    def test_async_soak_arms_skew_monitor_and_holds(self):
        result = run_soak(small_config(asynchronous=True, ticks=400.0),
                          healthy_baseline=False)
        assert result.clean, result.report()

    def test_report_and_summary_render(self):
        result = run_soak(small_config(), healthy_baseline=False)
        text = result.report()
        assert "soak:" in text and "accounted:" in text
        assert "invariants: all held" in text
        summary = result.summary()
        assert summary["offered"] == result.offered
        assert summary["signature"] == result.signature
        assert "recovery" in summary and "faults" in summary


class TestBuildSoakRing:
    def test_healthy_twin_has_no_faults_or_recovery(self):
        config = small_config()
        twin = build_soak_ring(config, plan=None)
        assert twin.faults is None
        assert twin.recovery is None

    def test_chaos_ring_arms_both(self):
        from repro.chaos import parse_chaos_spec
        config = small_config()
        plan = parse_chaos_spec(config.spec, config.nodes, config.lanes,
                                seed=config.seed)
        ring = build_soak_ring(config, plan=plan)
        assert ring.faults is not None
        assert ring.recovery is not None
        ring = build_soak_ring(small_config(recovery=False), plan=plan)
        assert ring.recovery is None


class TestSoakConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"ticks": 0.0},
        {"rate": 0.0},
        {"rate": 1.5},
        {"monitor_period": 0.0},
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides)
