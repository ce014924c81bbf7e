"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nodes == 16
        assert args.lanes == 4
        assert args.command == "run"

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["race", "--family", "zigzag"])


class TestRun:
    def test_basic_run(self, capsys):
        code = main(["run", "-n", "8", "-k", "2", "-m", "8",
                     "--rate", "0.05", "-f", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMB N=8 k=2" in out
        assert "completion_rate" in out

    def test_asynchronous_flag(self, capsys):
        code = main(["run", "-n", "8", "-k", "2", "-m", "4",
                     "--rate", "0.05", "-f", "2", "--asynchronous"])
        assert code == 0
        assert "asynchronous" in capsys.readouterr().out

    def test_zero_rate_reports_error(self, capsys):
        code = main(["run", "-n", "8", "--rate", "0.0"])
        assert code == 1


class TestRace:
    def test_race_prints_all_networks(self, capsys):
        code = main(["race", "-n", "16", "-k", "4",
                     "--family", "ring-shift", "-f", "4"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("rmb", "hypercube", "fattree", "mesh", "crossbar"):
            assert name in out
        assert "makespan_vs_rmb" in out


class TestCost:
    def test_cost_table(self, capsys):
        code = main(["cost", "-n", "64", "-k", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross_points" in out
        assert "rmb" in out


class TestTrace:
    def test_trace_renders_frames(self, capsys):
        code = main(["trace", "-n", "8", "-k", "3",
                     "--frames", "3", "--step", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("--- t =") == 3
        assert "compaction moves" in out
        assert "lane" in out


class TestSelfcheck:
    def test_selfcheck_passes_and_prints_table(self, capsys):
        code = main(["selfcheck"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "all 6 checks passed" in out


class TestRunSupervision:
    RUN = ["run", "-n", "8", "-k", "3", "-m", "12", "--rate", "0.05",
           "--flits", "4"]

    def test_admission_and_watchdog_flags(self, capsys):
        code = main(self.RUN + ["--admission-limit", "2",
                                "--admission-policy", "shed", "--watchdog"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shed" in out

    def test_checkpoint_resume_reproduces_the_report(self, tmp_path, capsys):
        template = str(tmp_path / "ck-{tick}.snap")
        stats_a = str(tmp_path / "a.json")
        stats_b = str(tmp_path / "b.json")
        code = main(self.RUN + ["--watchdog",
                                "--checkpoint-every", "40",
                                "--checkpoint-file", template,
                                "--stats-json", stats_a])
        assert code == 0
        first_report = capsys.readouterr().out
        snapshots = sorted(tmp_path.glob("ck-*.snap"))
        assert snapshots, "the run must have written checkpoints"
        code = main(["run", "--resume-from", str(snapshots[0]),
                     "--stats-json", stats_b])
        assert code == 0
        resumed_report = capsys.readouterr().out
        assert resumed_report == first_report
        assert (tmp_path / "a.json").read_text() == \
            (tmp_path / "b.json").read_text()

    def test_hier_resume_reproduces_the_journey_report(self, tmp_path,
                                                       capsys):
        """A fabric snapshot resumes to the journey-level report (title,
        per-ring table and the JSON's ``rings``), not the leg-level one."""
        stats_a = tmp_path / "a.json"
        stats_b = tmp_path / "b.json"
        code = main(["run", "-n", "16", "-k", "4", "-m", "64",
                     "--rate", "0.05", "--seed", "9",
                     "--topology", "hier:4x4", "--checkpoint-every", "60",
                     "--checkpoint-file", str(tmp_path / "h-{tick}.snap"),
                     "--stats-json", str(stats_a)])
        assert code == 0
        first_report = capsys.readouterr().out
        code = main(["run", "--resume-from", str(tmp_path / "h-60.snap"),
                     "--stats-json", str(stats_b)])
        assert code == 0
        resumed_report = capsys.readouterr().out
        assert "(journey-level)" in resumed_report
        assert "per-ring legs" in resumed_report
        assert resumed_report == first_report
        assert stats_b.read_text() == stats_a.read_text()

    def test_resume_from_garbage_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot")
        code = main(["run", "--resume-from", str(bad)])
        assert code == 1
        assert "cannot resume" in capsys.readouterr().out

    def test_stats_json_is_written(self, tmp_path):
        import json
        target = tmp_path / "stats.json"
        code = main(self.RUN + ["--stats-json", str(target)])
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["offered"] > 0
        assert "forced_teardowns" in summary


class TestRunObservability:
    RUN = ["run", "-n", "8", "-k", "3", "-m", "12", "--rate", "0.05",
           "--flits", "4"]

    def test_obs_level_full_prints_the_report(self, capsys):
        code = main(self.RUN + ["--obs-level", "full"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== observability report ==" in out
        assert "rmb_routing_completed" in out
        assert "spans:" in out and "recorded" in out

    def test_default_run_prints_no_report(self, capsys):
        code = main(self.RUN)
        assert code == 0
        assert "observability report" not in capsys.readouterr().out

    def test_metrics_out_is_valid_prometheus(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text
        target = tmp_path / "metrics.prom"
        code = main(self.RUN + ["--metrics-out", str(target)])
        assert code == 0
        parsed = parse_prometheus_text(target.read_text())
        assert parsed[("rmb_routing_completed", ())] > 0
        assert ("rmb_setup_latency_ticks_bucket", (("le", "+Inf"),)) in parsed

    def test_spans_out_is_json_lines(self, tmp_path):
        import json
        target = tmp_path / "spans.jsonl"
        code = main(self.RUN + ["--spans-out", str(target)])
        assert code == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows, "span stream must not be empty"
        assert {row["event"] for row in rows} >= {"submit", "complete"}

    def test_observability_never_changes_the_stats(self, tmp_path, capsys):
        import json
        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        assert main(self.RUN + ["--stats-json", str(plain)]) == 0
        assert main(self.RUN + ["--obs-level", "full",
                                "--stats-json", str(observed)]) == 0
        assert json.loads(plain.read_text()) == \
            json.loads(observed.read_text())


class TestArena:
    def test_arena_basic(self, capsys):
        code = main(["arena", "-n", "16", "-k", "4",
                     "--patterns", "transpose", "-f", "4",
                     "--networks", "rmb,multibus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "arena: N=16 k=4" in out
        assert "ordering:" in out
        assert "multibus" in out

    def test_arena_json_artifact(self, tmp_path, capsys):
        import json
        target = tmp_path / "arena.json"
        code = main(["arena", "-n", "16", "-k", "4",
                     "--patterns", "tornado", "-f", "2",
                     "--networks", "rmb,mesh", "--json", str(target)])
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["nodes"] == 16
        assert summary["sections"][0]["pattern"] == "tornado"
        assert {row["network"] for row in
                summary["sections"][0]["rows"]} == {"rmb", "mesh"}

    def test_arena_bad_pattern_reports_error(self, capsys):
        code = main(["arena", "--patterns", "zigzag"])
        assert code == 1
        assert "bad arena" in capsys.readouterr().out

    def test_arena_unknown_network_reports_error(self, capsys):
        code = main(["arena", "--patterns", "transpose",
                     "--networks", "rmb,moebius"])
        assert code == 1
        assert "moebius" in capsys.readouterr().out


class TestSaturate:
    SAT = ["saturate", "-n", "8", "-k", "3", "--pattern", "uniform",
           "--duration", "40", "--iterations", "2"]

    def test_saturate_event_backend(self, capsys):
        code = main(self.SAT)
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation rate:" in out
        assert "backend=event" in out

    def test_saturate_batch_backend_with_json(self, tmp_path, capsys):
        import json
        target = tmp_path / "curve.json"
        code = main(self.SAT + ["--backend", "batch",
                                "--json", str(target)])
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["backend"] == "batch"
        assert summary["saturation_rate"] > 0
        assert summary["points"]

    def test_saturate_composes_with_fault_plan(self, capsys):
        code = main(self.SAT + ["--fault-plan", "seg:1,0@10",
                                "--recovery"])
        assert code == 0
        assert "saturation" in capsys.readouterr().out

    def test_saturate_batch_refuses_event_features_by_name(self, capsys):
        code = main(self.SAT + ["--backend", "batch",
                                "--admission-limit", "2"])
        assert code == 1
        assert "admission_limit" in capsys.readouterr().out

    def test_saturate_bad_pattern_reports_error(self, capsys):
        code = main(["saturate", "--pattern", "zigzag"])
        assert code == 1
        assert "zigzag" in capsys.readouterr().out

    def test_saturate_bad_fault_plan_reports_error(self, capsys):
        code = main(self.SAT + ["--fault-plan", "nonsense"])
        assert code == 1
        assert "bad --fault-plan" in capsys.readouterr().out


class TestHierTopologyCLI:
    def test_run_hier_prints_journey_and_per_ring_tables(self, capsys):
        code = main(["run", "--topology", "hier:4x4", "-n", "16", "-k", "4",
                     "-m", "12", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hier RMB 4x4 k=4" in out
        assert "(journey-level)" in out
        assert "per-ring legs" in out
        for ring in ("local0", "local3", "global"):
            assert ring in out

    def test_run_hier_counts_journeys_shed_at_a_bridge(self, tmp_path):
        """A journey whose later leg is shed at a bridge counts as shed,
        so every offered journey lands in exactly one outcome."""
        import json
        path = tmp_path / "stats.json"
        code = main(["run", "-n", "16", "-k", "4", "-m", "200",
                     "--rate", "0.2", "--seed", "3",
                     "--topology", "hier:4x4", "--admission-limit", "1",
                     "--admission-policy", "shed",
                     "--stats-json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert (payload["offered"], payload["completed"], payload["shed"],
                payload["abandoned"]) == (220, 20, 200, 0)

    def test_run_hier_stats_json_carries_ring_breakdown(self, tmp_path):
        import json
        path = tmp_path / "stats.json"
        code = main(["run", "--topology", "hier:4x4", "-n", "16", "-k", "4",
                     "-m", "8", "--seed", "5", "--stats-json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["completed"] == payload["offered"] > 0
        assert set(payload["rings"]) == {
            "local0", "local1", "local2", "local3", "global"}

    def test_run_hier_refuses_resilience_flags_by_name(self, capsys):
        code = main(["run", "--topology", "hier:4x4", "-n", "16",
                     "--recovery", "--watchdog"])
        assert code == 1
        out = capsys.readouterr().out
        assert "--recovery" in out and "--watchdog" in out

    def test_run_bad_hier_spec_reports_error(self, capsys):
        code = main(["run", "--topology", "hier:3x5", "-n", "15"])
        assert code == 1
        assert "bad --topology" in capsys.readouterr().out

    def test_run_hier_checkpoints_list_member_rings(self, tmp_path, capsys):
        from repro.supervision import describe_snapshot
        template = str(tmp_path / "hier-{tick}.snap")
        code = main(["run", "--topology", "hier:4x4", "-n", "16", "-k", "4",
                     "-m", "8", "--seed", "5",
                     "--checkpoint-every", "64",
                     "--checkpoint-file", template])
        assert code == 0
        snaps = sorted(tmp_path.glob("hier-*.snap"))
        assert snaps
        manifest = describe_snapshot(str(snaps[0]))
        assert manifest["rings"] == [
            "local0", "local1", "local2", "local3", "global"]

    def test_saturate_hier_reports_per_ring_rates(self, tmp_path, capsys):
        import json
        path = tmp_path / "curve.json"
        code = main(["saturate", "--topology", "hier:4x4", "-n", "16",
                     "-k", "4", "--duration", "40", "--iterations", "1",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "topology=hier:4x4" in out
        payload = json.loads(path.read_text())
        assert payload["topology"] == "hier:4x4"
        assert any("ring_rates" in point for point in payload["points"])

    def test_saturate_hier_refuses_batch_backend(self, capsys):
        code = main(["saturate", "--topology", "hier:4x4", "-n", "16",
                     "--backend", "batch", "--duration", "40"])
        assert code == 1
        assert "batch backend does not support" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["run", "-m", "8"],
        ["saturate", "--duration", "40", "--iterations", "1"],
    ])
    def test_hier_with_one_lane_is_refused_by_name(self, command, capsys):
        # A fabric splits its lanes between the local and global tiers;
        # one lane cannot be split, and is not silently widened to two.
        code = main(command + ["--topology", "hier:4x4", "-n", "16",
                               "-k", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "2 lanes" in out
        assert len(out.strip().splitlines()) == 1


class TestRefusalSentence:
    """A feature a backend or topology does not model is refused in one
    line naming the field and its flag, and ``run`` and ``saturate``
    word it the same."""

    @pytest.mark.parametrize("engine, flag, named", [
        (["--backend", "batch"], ["--fault-plan", "seg:1,0@10"],
         "fault_plan (--fault-plan)"),
        (["--backend", "batch"], ["--recovery"], "recovery (--recovery)"),
        (["--backend", "batch"], ["--admission-limit", "2"],
         "admission_limit (--admission-limit)"),
        (["--backend", "batch"], ["--topology", "hier:4x4"],
         "topology (--topology)"),
        (["--topology", "hier:4x4"], ["--fault-plan", "seg:1,0@10"],
         "fault_plan (--fault-plan)"),
        (["--topology", "hier:4x4"], ["--recovery"], "recovery (--recovery)"),
    ], ids=["batch-fault-plan", "batch-recovery", "batch-admission-limit",
            "batch-topology", "hier-fault-plan", "hier-recovery"])
    def test_run_and_saturate_print_the_same_refusal(self, engine, flag,
                                                    named, capsys):
        shared = ["-n", "16", "-k", "4"] + engine + flag
        outputs = []
        for command in (["run", "-m", "8"],
                        ["saturate", "--duration", "40", "--iterations", "1"]):
            assert main(command + shared) == 1
            outputs.append(capsys.readouterr().out)
        run_out, saturate_out = outputs
        assert run_out == saturate_out
        assert len(run_out.strip().splitlines()) == 1
        assert f"does not support {named}" in run_out

    @pytest.mark.parametrize("engine, flag, named", [
        (["-n", "8", "-k", "3", "--backend", "batch"],
         ["--admission-limit", "2"], "admission_limit (--admission-limit)"),
        (["-n", "16", "-k", "3", "--topology", "hier:4x4"], ["--recovery"],
         "recovery (--recovery)"),
    ], ids=["batch-admission-limit", "hier-recovery"])
    def test_saturate_refuses_when_every_point_is_empty(self, engine, flag,
                                                       named, capsys):
        # At these rates no load point offers a message, so no network
        # is ever built; the refusal must not depend on one.
        empty = ["--rate-floor", "0.0001", "--rate-ceiling", "0.0002",
                 "--duration", "10"]
        busy = ["--duration", "40", "--iterations", "1"]
        outputs = []
        for bracket in (empty, busy):
            assert main(["saturate"] + engine + flag + bracket) == 1
            outputs.append(capsys.readouterr().out)
        empty_out, busy_out = outputs
        assert empty_out == busy_out
        assert len(empty_out.strip().splitlines()) == 1
        assert f"does not support {named}" in empty_out

    @pytest.mark.parametrize("flag, named", [
        (["--asynchronous"], "asynchronous (--asynchronous)"),
        (["--watchdog"], "watchdog (--watchdog)"),
        (["--checkpoint-every", "50"],
         "checkpoint_every (--checkpoint-every)"),
        (["--obs-level", "full"],
         "obs (--obs-level/--metrics-out/--spans-out)"),
    ], ids=["asynchronous", "watchdog", "checkpoint-every", "obs-level"])
    def test_run_only_flags_are_refused_on_batch(self, flag, named, capsys):
        assert main(["run", "-m", "8", "--backend", "batch"] + flag) == 1
        assert capsys.readouterr().out == (
            f"the batch backend does not support {named}; "
            f"use --backend event\n")


class TestUserErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "-n", "7"],
        ["run", "-k", "0"],
        ["chaos", "-n", "7"],
        ["race", "-n", "12"],
        ["race", "-k", "0"],
        ["trace", "-k", "0"],
    ], ids=" ".join)
    def test_bad_geometry_prints_one_line(self, argv, capsys):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
