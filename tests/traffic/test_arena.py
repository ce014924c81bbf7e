"""The cross-topology arena, including the Section 3 ordering check."""

from __future__ import annotations

import json

import pytest

from repro.arena import (
    DEFAULT_NETWORKS,
    arena_network_choices,
    run_arena,
)
from repro.errors import TopologyError, WorkloadError
from repro.traffic import make_pattern, pattern_batch


class TestRunArena:
    def test_every_network_delivers_the_whole_batch(self):
        report = run_arena(16, 4, ["transpose", "kperm"],
                           networks=("rmb", "mesh", "multibus"))
        assert len(report.sections) == 2
        for section in report.sections:
            for result in section.results:
                assert result.delivered == len(section.schedule)
                assert result.makespan > 0

    def test_identical_schedule_races_every_network(self):
        report = run_arena(16, 4, ["tornado"],
                           networks=("rmb", "multibus"))
        section = report.sections[0]
        assert section.peak_ring_load > 0
        assert {r.network for r in section.results} == {"rmb", "multibus"}
        assert section.ordering() == sorted(
            section.ordering(),
            key=lambda name: section.result_for(name).makespan)

    def test_prebuilt_schedule_override(self):
        pattern = make_pattern("transpose", 16, k=4, seed=0)
        schedule = pattern_batch(pattern, data_flits=2, seed=0)
        report = run_arena(
            16, 4, ["transpose"], networks=("rmb",),
            prebuilt={"transpose": schedule})
        assert report.sections[0].schedule is schedule

    def test_report_renders_deterministically(self):
        report = run_arena(16, 4, ["transpose"],
                           networks=("rmb", "mesh"))
        rendered = report.render()
        assert rendered == report.render()
        assert "ordering:" in rendered
        json.dumps(report.summary())  # JSON-able (CI artifact shape)

    def test_a_tie_renders_with_equals(self):
        # One ring-shift round finishes in 64 ticks on both RMB layouts.
        report = run_arena(16, 4, ["ring-shift"],
                           networks=("rmb-2ring", "rmb"))
        section = report.sections[0]
        assert section.result_for("rmb").makespan == \
            section.result_for("rmb-2ring").makespan
        assert "ordering: rmb = rmb-2ring" in report.render()
        assert section.ordering() == ["rmb", "rmb-2ring"]
        assert report.summary()["sections"][0]["ordering"] == \
            ["rmb", "rmb-2ring"]

    def test_default_networks_all_race(self):
        report = run_arena(16, 4, ["ring-shift"], rounds=1, data_flits=2)
        assert report.networks == DEFAULT_NETWORKS
        assert [r.network for r in report.sections[0].results] == \
            list(DEFAULT_NETWORKS)


class TestValidation:
    def test_empty_patterns_rejected(self):
        with pytest.raises(WorkloadError, match="at least one pattern"):
            run_arena(16, 4, [])

    def test_empty_networks_rejected(self):
        with pytest.raises(WorkloadError, match="at least one network"):
            run_arena(16, 4, ["transpose"], networks=())

    def test_unknown_network_rejected_before_any_run(self):
        with pytest.raises(TopologyError, match="moebius"):
            run_arena(16, 4, ["transpose"],
                      networks=("rmb", "moebius"))

    def test_missing_result_raises(self):
        report = run_arena(16, 4, ["transpose"], networks=("rmb",))
        with pytest.raises(WorkloadError, match="not raced"):
            report.sections[0].result_for("mesh")

    def test_network_choices_cover_the_registry(self):
        choices = arena_network_choices()
        assert "rmb" in choices and "mesh" in choices
        assert choices == sorted(choices)


class TestSectionThreeOrdering:
    """The acceptance check: sustained k-permutation traffic.

    Section 3's qualitative claim is that the RMB's segment reuse beats
    bus- and mesh-style competitors of the same wire budget once every
    node keeps k-permutation traffic in flight.  Sixteen stacked rounds
    of the unit ring shift (every node sending 16, receiving 16 — a
    16-permutation in the paper's message-set sense, peak ring load 16)
    is that regime: the RMB carries N concurrent single-segment buses on
    k lanes, while the multibus serialises on k global buses and the
    mesh pays per-hop queueing at its row boundaries.
    """

    @pytest.fixture(scope="class")
    def report(self):
        return run_arena(16, 4, ["ring-shift"], rounds=16,
                         networks=("rmb", "mesh", "multibus"))

    def test_rmb_beats_multibus_and_mesh(self, report):
        section = report.sections[0]
        rmb = section.result_for("rmb").makespan
        assert rmb < section.result_for("multibus").makespan
        assert rmb < section.result_for("mesh").makespan
        assert section.ordering()[0] == "rmb"

    def test_the_workload_is_sustained_k_permutation_traffic(self, report):
        section = report.sections[0]
        assert section.peak_ring_load == 16
        assert len(section.schedule) == 16 * 16

    def test_low_multiplicity_favours_the_low_diameter_networks(self):
        """The honest flip side: a single round is below the RMB's
        crossover — the mesh's hop pipeline wins a standing start."""
        report = run_arena(16, 4, ["ring-shift"], rounds=1,
                           networks=("rmb", "mesh"))
        section = report.sections[0]
        assert section.result_for("mesh").makespan < \
            section.result_for("rmb").makespan
