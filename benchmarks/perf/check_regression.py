"""CI perf gate: one rmbbench run against the committed msgs_per_s floors.

Usage (from the repository root)::

    python3 benchmarks/rmbbench/run.py --seed 7 --seconds 0 --out RESULTS
    python3 benchmarks/perf/check_regression.py RESULTS [--baseline PATH]

RESULTS is the combined JSON of an untraced rmbbench run over all
workloads: one pass of each workload's job list, each in its own
subprocess.  The gate fails when rmbbench's event == batch digest check
failed, and a gated workload fails when it is missing from RESULTS, when
rmbbench found its outputs incorrect, or when its ``values.msgs_per_s``
is more than ``max_regression_factor`` below its baseline in
``baseline.json`` (next to this script unless ``--baseline`` names
another file).  The factor is loose enough to absorb the spread between
CI runners and tight enough to catch a hot path falling back to a slow
implementation.

Exit status: 0 when every gate passes, 1 when one fails, 2 when an
input cannot be read or is malformed (a traced run included, since it
measures no ``msgs_per_s``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent


class GateError(Exception):
    """A problem with the gate's inputs (unreadable or malformed files)."""


def load_json(path: pathlib.Path, what: str) -> dict:
    """Read one JSON object with errors turned into clear messages."""
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


def load_baseline(path: pathlib.Path) -> tuple[dict[str, float], float]:
    """``({workload: baseline msgs_per_s}, max_regression_factor)``."""
    baseline = load_json(path, "baseline")
    try:
        factor = float(baseline["max_regression_factor"])
        gates = {name: float(value)
                 for name, value in baseline["gates"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GateError(
            f"baseline {path} is missing or mistypes a required key "
            f"('max_regression_factor', 'gates'): {exc}") from exc
    return gates, factor


def load_results(path: pathlib.Path) -> dict:
    """The combined results of one untraced rmbbench run."""
    results = load_json(path, "results")
    if results.get("trace"):
        raise GateError(f"results {path} are from a traced run, which "
                        f"measures no msgs_per_s; re-run without --trace")
    workloads = results.get("workloads")
    if not isinstance(workloads, dict) or not all(
            isinstance(run, dict) for run in workloads.values()):
        raise GateError(f"results {path} has no 'workloads' object of "
                        f"per-workload results; pass the file rmbbench's "
                        f"run.py wrote with --out")
    return results


def fmt(value: float) -> str:
    """Six significant digits and no exponent: ``57.9``, ``4,441.7``."""
    return f"{value:,.0f}" if abs(value) >= 1e5 else f"{value:,.6g}"


def check(results: dict, gates: dict[str, float],
          factor: float) -> list[str]:
    """Print one verdict line per gate; return the failures."""
    failures = [f"event == batch: {problem}"
                for problem in results.get("problems") or []]
    for name, baseline in gates.items():
        run = results["workloads"].get(name)
        if run is None:
            failures.append(f"{name}: missing from the results")
            continue
        if not run.get("correct", False):
            problems = run.get("problems") or ["no problem recorded"]
            failures.append(f"{name}: rmbbench found its outputs "
                            f"incorrect: {problems[0]}")
            continue
        try:
            measured = float(run["values"]["msgs_per_s"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GateError(f"{name} has no numeric values.msgs_per_s: "
                            f"{exc}") from exc
        floor = baseline / factor
        verdict = "OK" if measured >= floor else "REGRESSED"
        print(f"[gate] {name}: {fmt(measured)} msg/s (baseline "
              f"{fmt(baseline)}, floor {fmt(floor)}) {verdict}")
        if measured < floor:
            failures.append(f"{name}: {fmt(measured)} msg/s is more than "
                            f"{factor:g}x below the baseline "
                            f"{fmt(baseline)}")
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check one rmbbench run against the msgs_per_s floors.")
    parser.add_argument("results",
                        help="combined results JSON of rmbbench's run.py")
    parser.add_argument("--baseline", default=str(HERE / "baseline.json"),
                        help="baseline JSON (default: %(default)s)")
    args = parser.parse_args(argv)
    try:
        gates, factor = load_baseline(pathlib.Path(args.baseline))
        failures = check(load_results(pathlib.Path(args.results)), gates,
                         factor)
    except GateError as exc:
        print(f"perf regression gate cannot run: {exc}")
        return 2
    if failures:
        print("\nperf regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
