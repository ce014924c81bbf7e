"""rmbbench: the RMB simulator measured end to end, one workload at a time.

Usage (from the repository root)::

    python3 benchmarks/rmbbench/run.py --workload ring_local --seed 7
    python3 benchmarks/rmbbench/run.py --workload hier_local --trace 1
    python3 benchmarks/rmbbench/run.py              # all four, in turn

With ``--workload`` the run measures that workload in this process:
an untimed warm-up, then jobs (at least one full pass of the workload's
job list) until ``--seconds`` have elapsed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` instead runs one untraced and one
traced pass of the job list and reports the per-layer metrics.  Without
``--workload`` every workload runs in a fresh subprocess, one after
another, and the overload digests of the two backends are compared.

Every run checks its outputs (per-job digests, the E28 pin, delivery
conservation, and on ``batch_overload`` an event-backend replay of
job 0), prints each metric with its unit, writes a results JSON (and
``trace-*.json`` when traced) under ``benchmarks/rmbbench/out/`` unless
``--out`` names a file, and ends its output with one JSON line.  It exits
non-zero when any check fails.  The simulator is imported from ``src/``
next to this directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SECONDS = 20

#: End-to-end metrics: name -> (unit, better, kind).  ``sim`` metrics are
#: simulated facts, identical for identical seeds; ``host`` metrics are
#: measured on the host.  Bounds live in ``BENCHMARK.json``.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "msgs_per_s": ("msg/s", "higher", "host"),
    "setup_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MiB", "lower", "host"),
    "lat_p50_ticks": ("ticks", "lower", "sim"),
    "lat_p95_ticks": ("ticks", "lower", "sim"),
    "lat_mean_ticks": ("ticks", "lower", "sim"),
    "refused_frac": ("ratio", "lower", "sim"),
}

#: Printed, stored and compared for exactness, but given no bound: both
#: hang on the few unluckiest messages of a run (unlimited retries with
#: exponential backoff), so from one seed to the next they move by up to
#: 30% on ``ring_overload`` and ``hier_local``.
CONTEXT: Dict[str, Tuple[str, str, str]] = {
    "lat_p99_ticks": ("ticks", "lower", "sim"),
    "makespan_ticks": ("ticks", "lower", "sim"),
}

#: Per-layer metrics: name -> unit.  Layers are named after the modules
#: they time.  ``REPORTED_LAYER_METRICS`` go into the final JSON line;
#: the rest are printed and stored (they are structurally zero on the
#: workloads that do not run their layer).
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_msg": "events/msg",
    "sim.self_s": "s",
    "routing.flit_tick.calls": "count",
    "routing.flit_tick.s": "s",
    "routing.submit.s": "s",
    "routing.stall_ticks_per_msg": "ticks/msg",
    "routing.retries_per_msg": "retries/msg",
    "routing.success_ratio": "ratio",
    "compaction.passes": "count",
    "compaction.moves_per_pass": "moves/pass",
    "compaction.s": "s",
    "invariants.checks": "count",
    "invariants.s": "s",
    "probes.calls": "count",
    "probes.s": "s",
    "trace.records": "count",
    "hier.legs_per_journey": "legs/journey",
    "hier.global_leg_share": "ratio",
    "hier.reinject.calls": "count",
    "hier.reinject.s": "s",
    "batch.headers.s": "s",
    "batch.compaction.s": "s",
    "batch.move_legal.calls": "count",
    "batch.admit.s": "s",
    "batch.signals.s": "s",
    "batch.passive.s": "s",
    "batch.equivalent_events": "count",
    "batch.self_s": "s",
    "traffic.schedule_s": "s",
    "traffic.replay_s": "s",
    "network.build_s": "s",
    "bench.trace_overhead": "ratio",
}
_LAYER_SPECIFIC_TIMES = {
    "invariants.s", "hier.reinject.s", "batch.headers.s",
    "batch.compaction.s", "batch.admit.s", "batch.signals.s",
    "batch.passive.s", "batch.self_s",
}
REPORTED_LAYER_METRICS = [name for name in PER_LAYER
                          if name not in _LAYER_SPECIFIC_TIMES]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def grouped_quantile(values: Sequence[float], fraction: float) -> float:
    """Quantile of whole-tick data, interpolated inside its 1-tick bin.

    Latencies are whole ticks, so a plain percentile repeats exactly from
    seed to seed and hides shifts smaller than a tick.  Reading each tick
    as a bin ``[x - 0.5, x + 0.5)`` and interpolating by rank within it
    (what :func:`statistics.median_grouped` does for the median) keeps
    the value exact for a given seed and sensitive to the distribution.
    """
    ordered = sorted(values)
    count = len(ordered)
    target = fraction * count
    value = ordered[min(int(target), count - 1)]
    below = bisect.bisect_left(ordered, value)
    equal = bisect.bisect_right(ordered, value) - below
    return value - 0.5 + (target - below) / equal


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def measure(workload: Any, seed: int, seconds: float,
            tracer: Any) -> List[Any]:
    """Jobs ``seed, seed+1, ...`` cycling through the job list: at least
    one full pass, then more while they fit in ``seconds``."""
    executions: List[Any] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        job_seed = seed + len(executions) % workload.jobs
        executions.append(workload.run_job(job_seed, tracer))
        if len(executions) >= workload.jobs:
            typical = statistics.median(e.wall_s for e in executions)
            if time.perf_counter() - start + typical / 2 >= seconds:
                return executions


def check(workload: Any, executions: Sequence[Any],
          expected: Dict[str, Any]) -> List[str]:
    """Everything that must hold for the outputs to count as correct."""
    problems = []
    first: Dict[int, str] = {}
    known = expected.get("digests", {}).get(workload.name, {})
    pin = expected.get("e28", {})
    for job in executions:
        if job.offered != job.scheduled:
            problems.append(f"job seed {job.seed}: {job.scheduled} scheduled "
                            f"but {job.offered} offered")
        if job.failed:
            problems.append(f"job seed {job.seed}: {job.failed} of "
                            f"{job.offered} messages undelivered under "
                            f"unlimited retries")
        if first.setdefault(job.seed, job.digest) != job.digest:
            problems.append(f"job seed {job.seed}: digest changed on repeat")
        want = known.get(str(job.seed))
        if want is not None and want != job.digest:
            problems.append(f"job seed {job.seed}: digest {job.digest[:12]} "
                            f"!= expected {want[:12]}")
        if workload.pattern == "uniform" and job.seed == pin.get("seed"):
            got = {"messages": job.offered, "makespan_ticks": job.makespan,
                   "events": job.counts["events"]}
            for key, value in got.items():
                if value != pin[key]:
                    problems.append(f"E28 pin: {key} {value} != {pin[key]}")
    return problems


def event_twin(batch: Any, event: Any, seed: int, tracer: Any) -> str:
    """Digest of job ``seed`` replayed on the ``event`` workload, the
    oracle the ``batch`` workload must match bit for bit."""
    if (event.nodes, event.pattern, event.rate, event.window) != \
            (batch.nodes, batch.pattern, batch.rate, batch.window):
        raise RuntimeError(f"{batch.name} no longer mirrors {event.name}")
    return event.run_job(seed, tracer).digest


def end_to_end(workload: Any, executions: Sequence[Any],
               import_s: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    first_pass = executions[:workload.jobs]
    rates = [job.completed / job.run_s for job in executions]
    latencies = [value for job in first_pass for value in job.latencies]
    setups = [job.setup_s for job in executions]
    completed = sum(job.completed for job in first_pass)
    refused = sum(job.counts["retries"] for job in first_pass)
    values = {
        # Best of N: contention from other tenants only ever slows a job
        # (the same job's CPU time swings by a third within minutes on
        # shared hosts), so the fastest job is the least disturbed one.
        # The median over jobs is kept in the detail block.
        "msgs_per_s": max(rates),
        "setup_s": import_s + workload.jobs * statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "lat_p50_ticks": grouped_quantile(latencies, 0.50),
        "lat_p95_ticks": grouped_quantile(latencies, 0.95),
        "lat_mean_ticks": statistics.fmean(latencies),
        # Every retry follows a refused attempt (Nack or header timeout).
        "refused_frac": refused / (refused + completed),
        "lat_p99_ticks": grouped_quantile(latencies, 0.99),
        "makespan_ticks": sum(job.makespan for job in first_pass),
    }
    detail = {
        "msgs_per_s": {**quartiles(rates), "jobs": len(rates)},
        "setup_per_job_s": {**quartiles(setups), "jobs": len(setups)},
        "import_s": import_s,
        "latency_samples": len(latencies),
        "latency_samples_beyond_p95": sum(
            1 for value in latencies if value > values["lat_p95_ticks"]),
        "executions": [
            {"seed": job.seed, "completed": job.completed,
             "makespan": job.makespan, "run_s": job.run_s,
             "setup_s": job.setup_s, "wall_s": job.wall_s}
            for job in executions],
    }
    return values, detail


#: Fresh interpreters whose import time ``setup_s`` takes the median of.
IMPORT_PROBES = 5
_IMPORT_PROBE = """\
import sys, time
start = time.process_time()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
print(time.process_time() - start)
"""


def import_seconds() -> float:
    """CPU seconds a user pays to import the simulator (the workloads
    module pulls in every package the four workloads use), as the median
    over :data:`IMPORT_PROBES` fresh interpreters."""
    code = _IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True)
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def per_layer(workload: Any, untraced: Sequence[Any], traced: Sequence[Any],
              tracer: Any) -> Dict[str, float]:
    total = {key: sum(job.counts[key] for job in untraced)
             for key in untraced[0].counts}
    completed = sum(job.completed for job in untraced)
    offered = sum(job.offered for job in untraced)
    batch = workload.backend == "batch"
    wall_untraced = sum(job.wall_s for job in untraced)
    wall_traced = sum(job.wall_s for job in traced)
    return {
        "sim.events": total["events"],
        "sim.events_per_msg": total["events"] / completed,
        "sim.self_s": tracer.self_time("sim"),
        "routing.flit_tick.calls": tracer.count("routing.flit_tick"),
        "routing.flit_tick.s": tracer.total("routing.flit_tick"),
        "routing.submit.s": tracer.total("routing.submit"),
        "routing.stall_ticks_per_msg": total["stall_ticks"] / completed,
        "routing.retries_per_msg": total["retries"] / completed,
        "routing.success_ratio": completed / (completed + total["retries"]),
        "compaction.passes": total["compaction_passes"],
        "compaction.moves_per_pass":
            total["compaction_moves"] / total["compaction_passes"],
        "compaction.s": tracer.total("compaction"),
        "invariants.checks": total["invariant_checks"],
        "invariants.s": tracer.total("invariants"),
        "probes.calls": total["probe_samples"],
        "probes.s": tracer.total("probes"),
        "trace.records": total["trace_records"],
        "hier.legs_per_journey": total["legs"] / offered,
        "hier.global_leg_share": total["global_legs"] / total["legs"],
        "hier.reinject.calls": total["legs"] - offered,
        "hier.reinject.s": tracer.total("hier.leg_completed"),
        "batch.headers.s": tracer.total("batch.headers"),
        "batch.compaction.s": tracer.total("compaction") if batch else 0.0,
        "batch.move_legal.calls": tracer.count("batch.move_legal"),
        "batch.admit.s": tracer.total("batch.admit"),
        "batch.signals.s": tracer.total("batch.signals"),
        "batch.passive.s": tracer.total("batch.passive"),
        "batch.equivalent_events": total["events"] if batch else 0.0,
        "batch.self_s": tracer.self_time("sim") if batch else 0.0,
        "traffic.schedule_s": sum(job.schedule_s for job in untraced),
        "traffic.replay_s": sum(job.replay_s for job in untraced),
        "network.build_s": sum(job.build_s for job in untraced),
        "bench.trace_overhead": wall_traced / wall_untraced - 1.0,
    }


def environment() -> Dict[str, Any]:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system()}


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"rmbbench: cannot import the simulator from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"rmbbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())
    workload.warm_up(args.seed)
    result: Dict[str, Any] = {
        "workload": workload.name, "why": workload.why,
        "params": workload.params(), "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "environment": environment(),
    }
    if args.trace:
        untraced = measure(workload, args.seed, 0, NullTracer())
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seed, 0, tracer)
        finally:
            tracer.uninstall()
        executions = untraced + traced
        problems = check(workload, executions, expected)
        values = per_layer(workload, untraced, traced, tracer)
        reported = REPORTED_LAYER_METRICS
        units = PER_LAYER
        traced_wall = sum(job.wall_s for job in traced)
        result["trace_coverage"] = tracer.self_sum() / traced_wall
        trace_path = _out_path(args, "trace")
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "traced_wall_s": traced_wall, "self_sum_s": tracer.self_sum(),
            "spans": tracer.rows()}, indent=1) + "\n")
        result["trace_file"] = str(trace_path)
    else:
        executions = measure(workload, args.seed, args.seconds, NullTracer())
        values, result["detail"] = end_to_end(workload, executions,
                                              import_seconds())
        problems = check(workload, executions, expected)
        if workload.backend == "batch":
            oracle = event_twin(workload, workloads.WORKLOADS["ring_overload"],
                                args.seed, NullTracer())
            if oracle != executions[0].digest:
                problems.append(f"job seed {args.seed}: batch digest "
                                f"{executions[0].digest[:12]} != event "
                                f"backend {oracle[:12]}")
        reported = list(END_TO_END)
        units = {name: spec[0]
                 for name, spec in {**END_TO_END, **CONTEXT}.items()}
    first_pass = executions[:workload.jobs]
    result["digests"] = {str(job.seed): job.digest for job in first_pass}
    result["jobs_run"] = len(executions)
    result["values"] = values
    result["problems"] = problems
    attempted = sum(job.offered for job in executions)
    failed = sum(job.failed for job in executions)
    for problem in problems:
        print(f"CHECK FAILED [{workload.name}] {problem}")
    for name, value in values.items():
        print(f"{workload.name:<15} {name:<28} {value:>16.6g} {units[name]}")
    line = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in reported},
    }
    result.update(line)
    _out_path(args, "results").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if not problems else 1


def _out_path(args: argparse.Namespace, kind: str) -> Path:
    suffix = "-trace" if args.trace else ""
    if args.out is not None:
        out = Path(args.out)
        if kind == "trace":
            out = out.with_name(out.stem + "-spans" + out.suffix)
    else:
        name = args.workload or "all"
        stem = "trace" if kind == "trace" else "results"
        out = HERE / "out" / f"{stem}-{name}-s{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# All workloads, one subprocess each
# ---------------------------------------------------------------------------

WORKLOAD_ORDER = ("ring_local", "ring_overload", "batch_overload",
                  "hier_local")


def run_all(args: argparse.Namespace) -> int:
    combined: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                                "trace": bool(args.trace), "workloads": {}}
    out = _out_path(args, "results")
    status = 0
    started = time.perf_counter()
    for name in WORKLOAD_ORDER:
        # Kept out of ``out``'s directory, so globs over combined files
        # do not pick up each run twice.
        child_out = out.with_name(out.stem + ".parts") / f"{name}.json"
        child_out.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(child_out)]
        child = subprocess.run(command, capture_output=True, text=True,
                               check=False)
        print("\n".join(line for line in child.stdout.splitlines()
                        if not line.startswith('{"correct"')))
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"rmbbench: {name} exited with {child.returncode}")
            status = 1
        if child_out.exists():
            combined["workloads"][name] = json.loads(child_out.read_text())
    combined["wall_s"] = time.perf_counter() - started
    problems = []
    runs = combined["workloads"]
    if "ring_overload" in runs and "batch_overload" in runs:
        event = runs["ring_overload"]["digests"]
        batch = runs["batch_overload"]["digests"]
        for seed in sorted(set(event) & set(batch), key=int):
            if event[seed] != batch[seed]:
                problems.append(f"job seed {seed}: event {event[seed]} != "
                                f"batch {batch[seed]}")
    for problem in problems:
        print(f"CHECK FAILED [event == batch] {problem}")
    combined["problems"] = problems
    correct = status == 0 and not problems and all(
        run["correct"] for run in runs.values())
    line = {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, run in runs.items()
                    for metric, value in run["metrics"].items()},
    }
    combined.update(line)
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {out} ({combined['wall_s']:.1f} s)")
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the RMB simulator end to end.")
    parser.add_argument("--workload", choices=WORKLOAD_ORDER,
                        help="one workload in this process (default: all "
                             "four, each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure at least this long (after one full "
                             "pass of the job list)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): per-layer traced run")
    parser.add_argument("--out", help="results JSON path")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
