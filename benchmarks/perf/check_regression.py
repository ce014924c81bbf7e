"""CI perf gate: compare fresh BENCH_*.json files against baseline.json.

A gated metric fails when its measured ``ops_per_sec`` is more than
``max_regression_factor`` below the committed baseline — loose enough
to absorb machine variance between CI runners, tight enough to catch a
hot path accidentally falling back to a slow implementation.

Non-gated baseline entries (the ``informational`` block) are printed
for the log but never fail the build.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_all.py
    python benchmarks/perf/check_regression.py

Environment:
    PERF_OUT_DIR: where run_all wrote the JSON (default: repo root).
    PERF_BASELINE: alternative baseline.json path (default: alongside
        this script).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


class GateError(Exception):
    """A problem with the gate's inputs (missing/malformed files)."""


def load_json(path: pathlib.Path, what: str) -> dict:
    """Read one JSON file with errors turned into clear messages."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise GateError(f"{what} {path} cannot be read: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GateError(f"{what} {path} must hold a JSON object, "
                        f"got {type(payload).__name__}")
    return payload


def load_baseline(path: pathlib.Path) -> tuple[dict, float]:
    baseline = load_json(path, "baseline")
    try:
        factor = float(baseline["max_regression_factor"])
        gates = baseline["gates"]
    except (KeyError, TypeError, ValueError) as exc:
        raise GateError(
            f"baseline {path} is missing or mistypes a required key "
            f"('max_regression_factor', 'gates'): {exc}") from exc
    if not isinstance(gates, dict):
        raise GateError(f"baseline {path}: 'gates' must be an object")
    return baseline, factor


def load_bench(layer: str, out_dir: pathlib.Path) -> dict | None:
    path = out_dir / f"BENCH_{layer}.json"
    if not path.exists():
        return None
    bench = load_json(path, "bench output")
    if not isinstance(bench.get("results"), dict):
        raise GateError(f"bench output {path} has no 'results' object; "
                        f"re-run run_all.py")
    return bench


def main() -> int:
    baseline_path = pathlib.Path(
        os.environ.get("PERF_BASELINE", HERE / "baseline.json"))
    out_dir = pathlib.Path(os.environ.get("PERF_OUT_DIR", REPO_ROOT))
    try:
        baseline, factor = load_baseline(baseline_path)
        return check(baseline, factor, out_dir)
    except GateError as exc:
        print(f"perf regression gate cannot run: {exc}")
        return 2


def fmt(value: float) -> str:
    """Six significant digits and no exponent: ``24,704``, ``0.033125``
    (a saturation rate), ``850,000``."""
    return f"{value:,.0f}" if abs(value) >= 1e5 else f"{value:,.6g}"


def check(baseline: dict, factor: float, out_dir: pathlib.Path) -> int:
    failures = []
    for layer, metrics in baseline["gates"].items():
        bench = load_bench(layer, out_dir)
        if bench is None:
            failures.append(f"BENCH_{layer}.json missing (run run_all.py first)")
            continue
        for name, floor in metrics.items():
            row = bench["results"].get(name)
            if row is None or "ops_per_sec" not in row:
                failures.append(f"{layer}/{name}: scenario missing from bench")
                continue
            measured = float(row["ops_per_sec"])
            minimum = float(floor) / factor
            verdict = "OK" if measured >= minimum else "REGRESSED"
            print(f"[gate] {layer}/{name}: {fmt(measured)} ops/sec "
                  f"(baseline {fmt(float(floor))}, floor {fmt(minimum)}) "
                  f"{verdict}")
            if measured < minimum:
                failures.append(
                    f"{layer}/{name}: {fmt(measured)} ops/sec is more than "
                    f"{factor:g}x below the committed baseline "
                    f"{fmt(float(floor))}")

    for layer, metrics in baseline.get("informational", {}).items():
        bench = load_bench(layer, out_dir)
        if bench is None:
            continue
        for name, reference in metrics.items():
            row = bench["results"].get(name)
            if row is None:
                continue
            print(f"[info] {layer}/{name}: {fmt(float(row['ops_per_sec']))} "
                  f"ops/sec (reference {fmt(float(reference))})")

    if failures:
        print("\nperf regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
