"""Compare two sets of rmbbench runs, metric by metric and workload by workload.

Usage::

    python3 benchmarks/rmbbench/compare.py A1.json A2.json ... -- B1.json ...

``A`` is the parent, ``B`` the change.  Each file is a results JSON from
``run.py`` (one workload, or the combined file of a run over all four);
traced runs are skipped.  When both sides ran the same seeds, runs pair
up by seed; otherwise in the order given.  Alternate the two commits
when producing the runs.

For each (workload, end-to-end metric) the table shows both sides'
median and quartiles, the fraction of pairs B wins, and a verdict:

* simulated metrics (``sim`` kind) are exact: when both sides ran the
  same seeds, every value must be byte-equal (``identical``), anything
  else is ``changed``; the unbounded context metrics (``lat_p99_ticks``,
  ``makespan_ticks``) appear only then;
* host metrics follow the choosing-metrics rules: ``better`` when B wins
  at least nine tenths of the pairs and the medians differ by more than
  A's quartile spread; ``worse`` when B's median is worse than A's by
  more than the bound in ``BENCHMARK.json``; ``unresolved`` when A's own
  spread is wider than that bound (unless every B run beats every A
  run); ``unchanged`` otherwise.

Exits 1 when any verdict is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import CONTEXT, END_TO_END, ROOT, quartiles  # noqa: E402

Run = Tuple[str, int, Dict[str, float]]   # (workload, seed, values)


def load_runs(paths: Sequence[str]) -> List[Run]:
    runs: List[Run] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        results = data["workloads"].values() if "workloads" in data \
            else [data]
        for result in results:
            if not result.get("trace"):
                runs.append((result["workload"], result["seed"],
                             result["values"]))
    return runs


def bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def verdict(a: Sequence[Tuple[int, float]], b: Sequence[Tuple[int, float]],
            better: str, kind: str, bound: Optional[float]) -> Dict[str, Any]:
    a_values = [value for _, value in a]
    b_values = [value for _, value in b]
    qa, qb = quartiles(a_values), quartiles(b_values)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a_values, b_values))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    row = {"a": qa, "b": qb, "pairs": len(pairs),
           "win_fraction": wins / len(pairs) if pairs else 0.0}
    if kind == "sim" and sorted(s for s, _ in a) == sorted(s for s, _ in b):
        a_by_seed, b_by_seed = dict(a), dict(b)
        same = all(repr(a_by_seed[s]) == repr(b_by_seed[s]) for s in a_by_seed)
        row["verdict"] = "identical" if same else "changed"
        return row
    spread = qa["q3"] - qa["q1"]
    worse_by = sign * (qa["median"] - qb["median"]) / abs(qa["median"])
    if pairs and wins >= 0.9 * len(pairs) \
            and abs(qb["median"] - qa["median"]) > spread:
        row["verdict"] = "better"
    elif worse_by > bound:
        row["verdict"] = "worse"
    elif spread / abs(qa["median"]) > bound and not (
            min(sign * v for v in b_values) > max(sign * v for v in a_values)):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(a_runs: List[Run], b_runs: List[Run],
            limits: Dict[str, float]) -> List[Dict[str, Any]]:
    """One row per (workload, metric).  Context metrics carry no bound:
    they are only checked for exactness, when both sides ran the same
    seeds."""
    rows = []
    workloads = sorted({run[0] for run in a_runs} & {run[0] for run in b_runs})
    for workload in workloads:
        a_side = [(seed, values) for name, seed, values in a_runs
                  if name == workload]
        b_side = [(seed, values) for name, seed, values in b_runs
                  if name == workload]
        same_seeds = sorted(s for s, _ in a_side) == sorted(s for s, _ in b_side)
        if same_seeds:  # pair each seed's A run with its B run
            a_side.sort(key=lambda run: run[0])
            b_side.sort(key=lambda run: run[0])
        for metric, (unit, better, kind) in {**END_TO_END, **CONTEXT}.items():
            bound = limits.get(metric)
            if bound is None and not same_seeds:
                continue
            a = [(seed, values[metric]) for seed, values in a_side]
            b = [(seed, values[metric]) for seed, values in b_side]
            row = verdict(a, b, better, kind, bound)
            row.update(workload=workload, metric=metric, unit=unit,
                       bound=bound)
            rows.append(row)
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<15} {'metric':<15} {'A q1/median/q3':>32} "
             f"{'B q1/median/q3':>32} {'wins':>5} {'bound':>6}  verdict"]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<15} {row['metric']:<15} "
            f"{a['q1']:>10.5g} {a['median']:>10.5g} {a['q3']:>10.5g} "
            f"{b['q1']:>10.5g} {b['median']:>10.5g} {b['q3']:>10.5g} "
            f"{row['win_fraction']:>5.2f} "
            f"{'-' if row['bound'] is None else format(row['bound'], '.2f'):>6}"
            f"  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = list(argv).index("--")
    a_runs, b_runs = load_runs(argv[:split]), load_runs(argv[split + 1:])
    if not a_runs or not b_runs:
        print("compare: each side needs at least one untraced run",
              file=sys.stderr)
        return 2
    rows = compare(a_runs, b_runs, bounds())
    print(render(rows))
    failed = [row for row in rows if row["verdict"] in ("worse", "changed")]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
