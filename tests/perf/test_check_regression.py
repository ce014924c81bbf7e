"""The CI perf gate must fail with a clear message, never a traceback.

``check_regression.main`` is exercised end to end through its
environment knobs (``PERF_BASELINE``, ``PERF_OUT_DIR``): every
malformed-input path must return a nonzero exit code and print a
one-line diagnosis, and the pass/regress verdicts must read correctly
from well-formed inputs.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks" / "perf" / "check_regression.py")

spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)

BASELINE = {
    "max_regression_factor": 2.0,
    "gates": {"end2end": {"load_sweep": 1000.0}},
    "informational": {"end2end": {"other": 500.0}},
}


def write_inputs(tmp_path, monkeypatch, baseline=BASELINE, bench=...):
    baseline_path = tmp_path / "baseline.json"
    if isinstance(baseline, str):
        baseline_path.write_text(baseline)
    else:
        baseline_path.write_text(json.dumps(baseline))
    monkeypatch.setenv("PERF_BASELINE", str(baseline_path))
    monkeypatch.setenv("PERF_OUT_DIR", str(tmp_path))
    if bench is ...:
        bench = {"results": {"load_sweep": {"ops_per_sec": 900.0},
                             "other": {"ops_per_sec": 480.0}}}
    if bench is not None:
        if isinstance(bench, str):
            (tmp_path / "BENCH_end2end.json").write_text(bench)
        else:
            (tmp_path / "BENCH_end2end.json").write_text(json.dumps(bench))


class TestHealthyInputs:
    def test_within_factor_passes(self, tmp_path, monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch)
        assert check_regression.main() == 0
        out = capsys.readouterr().out
        assert "gate passed" in out
        assert "[info] end2end/other" in out

    def test_small_gate_values_keep_their_digits(self, tmp_path, monkeypatch,
                                                 capsys):
        # Saturation rates are fractions of a message per node per tick;
        # whole-number formatting printed every traffic gate as 0.
        baseline = {"max_regression_factor": 2.0,
                    "gates": {"traffic": {"sat_uniform_event": 0.033125}}}
        write_inputs(tmp_path, monkeypatch, baseline=baseline, bench=None)
        (tmp_path / "BENCH_traffic.json").write_text(json.dumps(
            {"results": {"sat_uniform_event": {"ops_per_sec": 0.033125}}}))
        assert check_regression.main() == 0
        assert ("[gate] traffic/sat_uniform_event: 0.033125 ops/sec "
                "(baseline 0.033125, floor 0.0165625) OK"
                ) in capsys.readouterr().out

    def test_regression_fails_with_named_metric(self, tmp_path, monkeypatch,
                                                capsys):
        write_inputs(tmp_path, monkeypatch,
                     bench={"results": {"load_sweep":
                                        {"ops_per_sec": 100.0}}})
        assert check_regression.main() == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "end2end/load_sweep" in out


class TestBrokenInputs:
    """Every malformed input must diagnose itself, not traceback."""

    def test_missing_baseline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERF_BASELINE", str(tmp_path / "nowhere.json"))
        monkeypatch.setenv("PERF_OUT_DIR", str(tmp_path))
        assert check_regression.main() == 2
        out = capsys.readouterr().out
        assert "cannot run" in out
        assert "nowhere.json" in out

    def test_malformed_baseline_json(self, tmp_path, monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch, baseline="{not json")
        assert check_regression.main() == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_baseline_missing_required_keys(self, tmp_path, monkeypatch,
                                            capsys):
        write_inputs(tmp_path, monkeypatch, baseline={"gates": {}})
        assert check_regression.main() == 2
        assert "max_regression_factor" in capsys.readouterr().out

    def test_baseline_not_an_object(self, tmp_path, monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch, baseline="[1, 2]")
        assert check_regression.main() == 2
        assert "JSON object" in capsys.readouterr().out

    def test_missing_bench_file_fails_the_gate(self, tmp_path, monkeypatch,
                                               capsys):
        write_inputs(tmp_path, monkeypatch, bench=None)
        assert check_regression.main() == 1
        out = capsys.readouterr().out
        assert "BENCH_end2end.json missing" in out
        assert "run_all.py" in out

    def test_malformed_bench_json(self, tmp_path, monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch, bench="oops{")
        assert check_regression.main() == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_bench_without_results_block(self, tmp_path, monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch, bench={"bench": "end2end"})
        assert check_regression.main() == 2
        assert "no 'results'" in capsys.readouterr().out

    def test_bench_missing_scenario_fails_the_gate(self, tmp_path,
                                                   monkeypatch, capsys):
        write_inputs(tmp_path, monkeypatch, bench={"results": {}})
        assert check_regression.main() == 1
        assert "scenario missing" in capsys.readouterr().out


def test_repo_baseline_is_well_formed():
    """The committed baseline must satisfy the gate's own schema."""
    baseline, factor = check_regression.load_baseline(
        SCRIPT.parent / "baseline.json")
    assert factor >= 1.0
    assert baseline["gates"]
    for metrics in baseline["gates"].values():
        for floor in metrics.values():
            assert float(floor) > 0
