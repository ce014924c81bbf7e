"""The experiment registry must match the benchmark suite on disk."""

from repro.analysis.experiments import (
    EXPERIMENTS,
    benchmarks_dir,
    registry_status,
)


def test_ids_unique_and_ordered():
    ids = [experiment.experiment_id for experiment in EXPERIMENTS]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "E1"
    assert ids[-1] == "E27"


def test_kinds_are_constrained():
    assert {experiment.kind for experiment in EXPERIMENTS} <= {
        "exact", "behavioural", "new",
    }


def test_every_registered_bench_exists_on_disk():
    bench_dir = benchmarks_dir()
    assert bench_dir.is_dir(), bench_dir
    for experiment in EXPERIMENTS:
        assert (bench_dir / experiment.bench_module).is_file(), \
            f"{experiment.experiment_id} points at a missing benchmark"


def test_every_bench_on_disk_is_registered():
    bench_dir = benchmarks_dir()
    registered = {experiment.bench_module for experiment in EXPERIMENTS}
    on_disk = {
        path.name for path in bench_dir.glob("bench_*.py")
    }
    assert on_disk == registered, (
        "benchmarks and registry out of sync: "
        f"unregistered={sorted(on_disk - registered)}, "
        f"missing={sorted(registered - on_disk)}"
    )


def test_registry_status_rows():
    rows = registry_status(benchmarks_dir())
    assert len(rows) == len(EXPERIMENTS)
    assert all(row["bench exists"] for row in rows)


def test_registry_status_handles_missing_dir(tmp_path):
    rows = registry_status(tmp_path)
    assert all(not row["bench exists"] for row in rows)
    assert all(not row["result archived"] for row in rows)
