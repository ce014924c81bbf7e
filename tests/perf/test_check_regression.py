"""The CI perf gate must fail with a clear message, never a traceback.

``check_regression.main`` is exercised end to end on a results file in
the shape rmbbench's ``run.py --out`` writes and a baseline passed with
``--baseline``: every malformed-input path must return exit 2 and print
a one-line diagnosis, and the pass/regress verdicts must read correctly
from well-formed inputs.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "perf" / "check_regression.py"

spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)

BASELINE = {"max_regression_factor": 2.0,
            "gates": {"ring_overload": 115.8, "hier_local": 1672.8}}


def workload(msgs_per_s, problems=()):
    return {"correct": not problems, "problems": list(problems),
            "values": {"msgs_per_s": msgs_per_s, "setup_s": 1.0}}


def results(**workloads):
    """A combined rmbbench results file holding ``workloads``."""
    return {"seed": 7, "seconds": 0, "trace": False, "problems": [],
            "workloads": workloads}


HEALTHY = results(ring_overload=workload(288.0), hier_local=workload(3108.1))


def run_gate(tmp_path, baseline=BASELINE, bench=HEALTHY):
    """Write both inputs (a str is written verbatim) and run the gate."""
    paths = []
    for name, payload in (("baseline.json", baseline),
                          ("rmbbench.json", bench)):
        path = tmp_path / name
        if payload is not None:
            path.write_text(payload if isinstance(payload, str)
                            else json.dumps(payload))
        paths.append(str(path))
    return check_regression.main([paths[1], "--baseline", paths[0]])


class TestHealthyInputs:
    def test_within_factor_passes(self, tmp_path, capsys):
        assert run_gate(tmp_path) == 0
        out = capsys.readouterr().out
        assert ("[gate] ring_overload: 288 msg/s (baseline 115.8, "
                "floor 57.9) OK") in out
        assert ("[gate] hier_local: 3,108.1 msg/s (baseline 1,672.8, "
                "floor 836.4) OK") in out
        assert "gate passed" in out

    def test_small_gate_values_keep_their_digits(self, tmp_path, capsys):
        bench = results(ring_overload=workload(57.9),
                        hier_local=workload(3108.1))
        assert run_gate(tmp_path, bench=bench) == 0
        assert ("[gate] ring_overload: 57.9 msg/s (baseline 115.8, "
                "floor 57.9) OK") in capsys.readouterr().out

    def test_regression_fails_with_named_metric(self, tmp_path, capsys):
        bench = results(ring_overload=workload(40.0),
                        hier_local=workload(3108.1))
        assert run_gate(tmp_path, bench=bench) == 1
        out = capsys.readouterr().out
        assert "[gate] ring_overload: 40 msg/s" in out
        assert "REGRESSED" in out
        assert "ring_overload: 40 msg/s is more than 2x below" in out
        assert "hier_local: 3,108.1 msg/s (baseline 1,672.8, floor " \
            "836.4) OK" in out

    def test_incorrect_workload_fails_with_its_first_problem(self, tmp_path,
                                                             capsys):
        bench = results(ring_overload=workload(
            288.0, problems=["E28 pin: events 1 != 217644", "second"]),
            hier_local=workload(3108.1))
        assert run_gate(tmp_path, bench=bench) == 1
        out = capsys.readouterr().out
        assert "ring_overload: rmbbench found its outputs incorrect: " \
            "E28 pin: events 1 != 217644" in out
        assert "second" not in out

    def test_event_batch_mismatch_fails(self, tmp_path, capsys):
        bench = dict(HEALTHY, problems=["job seed 9: event aa != batch bb"])
        assert run_gate(tmp_path, bench=bench) == 1
        assert "event == batch: job seed 9" in capsys.readouterr().out


class TestBrokenInputs:
    """Every malformed input must diagnose itself, not traceback."""

    def test_missing_baseline(self, tmp_path, capsys):
        assert run_gate(tmp_path, baseline=None) == 2
        out = capsys.readouterr().out
        assert "cannot run" in out
        assert "baseline.json cannot be read" in out

    def test_malformed_baseline_json(self, tmp_path, capsys):
        assert run_gate(tmp_path, baseline="{not json") == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_baseline_missing_required_keys(self, tmp_path, capsys):
        assert run_gate(tmp_path, baseline={"gates": {}}) == 2
        assert "max_regression_factor" in capsys.readouterr().out

    def test_baseline_gates_not_numbers(self, tmp_path, capsys):
        baseline = {"max_regression_factor": 2.0,
                    "gates": {"ring_overload": {"load_sweep": 1.0}}}
        assert run_gate(tmp_path, baseline=baseline) == 2
        assert "mistypes a required key" in capsys.readouterr().out

    def test_baseline_not_an_object(self, tmp_path, capsys):
        assert run_gate(tmp_path, baseline="[1, 2]") == 2
        assert "JSON object" in capsys.readouterr().out

    def test_missing_bench_file_fails_the_gate(self, tmp_path, capsys):
        assert run_gate(tmp_path, bench=None) == 2
        out = capsys.readouterr().out
        assert "cannot run" in out
        assert "rmbbench.json cannot be read" in out

    def test_malformed_bench_json(self, tmp_path, capsys):
        assert run_gate(tmp_path, bench="oops{") == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_bench_without_results_block(self, tmp_path, capsys):
        # One workload's own results file, not the combined one.
        assert run_gate(tmp_path, bench=workload(288.0)) == 2
        assert "no 'workloads' object" in capsys.readouterr().out

    def test_bench_missing_msgs_per_s(self, tmp_path, capsys):
        bench = results(ring_overload={"correct": True, "values": {}},
                        hier_local=workload(3108.1))
        assert run_gate(tmp_path, bench=bench) == 2
        assert "ring_overload has no numeric values.msgs_per_s" in \
            capsys.readouterr().out

    def test_traced_results_are_refused(self, tmp_path, capsys):
        assert run_gate(tmp_path, bench=dict(HEALTHY, trace=True)) == 2
        assert "traced run" in capsys.readouterr().out

    def test_bench_missing_scenario_fails_the_gate(self, tmp_path, capsys):
        bench = results(ring_overload=workload(288.0))
        assert run_gate(tmp_path, bench=bench) == 1
        assert "hier_local: missing from the results" in \
            capsys.readouterr().out


def test_repo_baseline_is_well_formed():
    """The committed baseline satisfies the gate's own schema and gates
    exactly the workloads ``BENCHMARK.json`` declares, so a renamed
    workload cannot silently lose its floor."""
    gates, factor = check_regression.load_baseline(
        SCRIPT.parent / "baseline.json")
    assert factor >= 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(gates) == sorted(entry["name"] for entry in declared)
    assert all(value > 0 for value in gates.values())
