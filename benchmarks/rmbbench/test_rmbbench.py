"""Self-tests of the rmbbench harness (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q benchmarks/rmbbench/test_rmbbench.py

About half a minute: the E28 pin replays the 8-second E28 job once.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def expected_digest(workload: str, seed: int) -> str:
    return EXPECTED["digests"][workload][str(seed)]


# -- BENCHMARK.json -------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.match(name) for name in names + list(run.PER_LAYER))
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_ORDER)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == {name: spec[:2] for name, spec in run.END_TO_END.items()}
    assert [m["name"] for m in SPEC["per_layer"]] == run.REPORTED_LAYER_METRICS
    assert all(run.PER_LAYER[m["name"]] == m["unit"] for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["benchmarks/rmbbench"]


def test_each_workload_offers_at_least_1000_messages_per_pass():
    # Every offered message must complete (the run checks it), so the
    # schedule sizes are the latency samples of one pass: at least 50
    # lie beyond the reported 95th percentile.
    for workload in workloads.WORKLOADS.values():
        offered = sum(len(workload.schedule(7 + job))
                      for job in range(workload.jobs))
        assert offered >= 1000, workload.name


# -- outputs -----------------------------------------------------------------

def test_e28_pin_and_event_equals_batch():
    event = workloads.WORKLOADS["ring_overload"].run_job(7, NullTracer())
    assert (event.offered, event.makespan, event.counts["events"]) \
        == (509, 133_600.0, 217_644.0)
    assert event.completed == 509
    assert event.digest == expected_digest("ring_overload", 7)
    batch = workloads.WORKLOADS["batch_overload"].run_job(7, NullTracer())
    assert batch.digest == event.digest
    assert batch.counts["events"] == 217_644.0


def test_same_seed_same_digest():
    workload = workloads.WORKLOADS["hier_local"]
    first = workload.run_job(11, NullTracer())
    second = workload.run_job(11, NullTracer())
    assert first.digest == second.digest == expected_digest("hier_local", 11)
    assert first.completed == first.offered


@pytest.mark.parametrize("name,seed", [("hier_local", 7),
                                       ("batch_overload", 12)])
def test_traced_digest_equals_untraced(name, seed):
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.WORKLOADS[name].run_job(seed, tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == expected_digest(name, seed)
    assert tracer.count("routing.flit_tick") > 0
    assert tracer.count("bench.job") == 1
    assert abs(tracer.self_sum() - tracer.total("bench.job")) < 1e-6


def test_perturbed_expected_digest_is_reported():
    workload = workloads.WORKLOADS["batch_overload"]
    job = workload.run_job(8, NullTracer())
    assert run.check(workload, [job], EXPECTED) == []
    perturbed = json.loads(json.dumps(EXPECTED))
    perturbed["digests"]["batch_overload"]["8"] = "0" * 64
    problems = run.check(workload, [job], perturbed)
    assert len(problems) == 1 and "expected" in problems[0]


# -- the tracer --------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tracer_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # root [0, 10]: a [1, 4] holding b [2, 3]; c [5, 8].
    script = [("enter", "root", 0), ("enter", "a", 1), ("enter", "b", 2),
              ("exit", None, 3), ("exit", None, 4), ("enter", "c", 5),
              ("exit", None, 8), ("exit", None, 10)]
    for action, name, at in script:
        clock.now = float(at)
        if action == "enter":
            tracer.enter(name)
        else:
            tracer.exit()
    assert tracer.self_time("root") == 4.0
    assert tracer.self_time("a") == 2.0
    assert tracer.self_time("b") == 1.0
    assert tracer.self_time("c") == 3.0
    assert tracer.self_sum() == tracer.total("root") == 10.0
    assert tracer.table[("b", "a")][:2] == [1, 1.0]


def test_tracer_total_counts_indirect_recursion_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for name, at in (("x", 0), ("y", 1), ("x", 2)):
        clock.now = float(at)
        tracer.enter(name)
    for at in (3, 4, 6):
        clock.now = float(at)
        tracer.exit()
    assert tracer.total("x") == 6.0
    assert tracer.self_time("x") == 1.0 + 3.0
    assert tracer.count("x") == 2 and tracer.table[("x", "y")][0] == 1


def test_tracer_install_restores_originals_and_refuses_twice():
    from repro.core.routing import RoutingEngine

    original = RoutingEngine.__dict__["flit_tick"]
    tracer = Tracer()
    tracer.install()
    try:
        assert RoutingEngine.__dict__["flit_tick"] is not original
        with pytest.raises(RuntimeError):
            Tracer().install()
    finally:
        tracer.uninstall()
    assert RoutingEngine.__dict__["flit_tick"] is original


# -- statistics and comparison -------------------------------------------------

def test_grouped_quantile_matches_median_grouped():
    data = [3, 5, 5, 5, 6, 6, 7, 9, 9, 12, 40]
    assert run.grouped_quantile(data, 0.5) == pytest.approx(
        statistics.median_grouped(data))
    assert run.grouped_quantile(data, 0.99) <= 40.5
    assert run.grouped_quantile([39] * 10, 0.5) == 39.0


def _runs(name, values, first_seed=0):
    metrics = {**run.END_TO_END, **run.CONTEXT}
    return [(name, first_seed + index, {metric: value for metric in metrics})
            for index, value in enumerate(values)]


def test_compare_verdicts():
    limits = {metric: 0.1 for metric in run.END_TO_END}
    base = _runs("w", [100.0, 101.0, 99.0, 100.5, 100.2])
    rows = {row["metric"]: row for row in compare.compare(base, base, limits)}
    assert rows["msgs_per_s"]["verdict"] == "unchanged"
    assert rows["lat_p50_ticks"]["verdict"] == "identical"
    assert rows["makespan_ticks"]["verdict"] == "identical"
    slower = _runs("w", [80.0, 81.0, 79.0, 80.5, 80.2])
    rows = {row["metric"]: row for row in compare.compare(base, slower, limits)}
    assert rows["msgs_per_s"]["verdict"] == "worse"
    assert rows["lat_p50_ticks"]["verdict"] == "changed"
    assert rows["setup_s"]["verdict"] == "better"
    assert rows["setup_s"]["win_fraction"] == 1.0
    # Other seeds: simulated metrics fall back to their bound, and the
    # unbounded context metrics drop out.
    shifted = _runs("w", [100.0, 101.0, 99.0, 100.5, 100.2], first_seed=50)
    rows = {row["metric"]: row for row in compare.compare(base, shifted, limits)}
    assert rows["lat_p50_ticks"]["verdict"] == "unchanged"
    assert "makespan_ticks" not in rows


# -- a tree without the simulator -----------------------------------------------

def test_run_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "rmbbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "benchmarks/rmbbench/run.py", "--workload",
         "ring_local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
