"""Shared machinery for the perf microbenchmark suite.

Each ``bench_*.py`` module in this directory measures one layer of the
simulator (kernel, compaction, end-to-end) and emits a machine-readable
``BENCH_<layer>.json`` at the repository root, so the repo carries a
perf trajectory that future PRs can compare against.

Conventions:

* every scenario is a zero-argument callable returning an integer *work
  count* (events executed, cycles run, ...); the harness times it and
  reports ``ops_per_sec = work / best_wall_seconds``;
* fresh state is built inside the scenario so repeats are independent;
* ``best of N`` wall time is reported (robust against scheduler noise
  on shared CI machines).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from typing import Any, Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Repeats per scenario; best wall time wins.
REPEATS = int(os.environ.get("PERF_REPEATS", "3"))


def environment() -> dict[str, Any]:
    """The facts needed to interpret (and compare) the numbers."""
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }
    env["numpy"] = _numpy_info()
    return env


def _numpy_info() -> dict[str, Any] | None:
    """numpy version plus the BLAS it links — batch-backend numbers are
    meaningless without them.  ``None`` on trees without numpy."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a core dep
        return None
    info: dict[str, Any] = {"version": numpy.__version__}
    try:
        config = numpy.__config__.CONFIG  # numpy >= 1.26 dict API
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {
            "name": blas.get("name", "unknown"),
            "found": blas.get("found", False),
        }
    except AttributeError:  # pragma: no cover - older numpy
        info["blas"] = {"name": "unknown", "found": False}
    return info


def time_scenario(fn: Callable[[], int], repeats: int = 0) -> dict[str, float]:
    """Run ``fn`` ``repeats`` times; report best wall time and ops/sec."""
    repeats = repeats or REPEATS
    best = float("inf")
    work = 0
    for _ in range(repeats):
        start = time.perf_counter()
        work = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {
        "work": float(work),
        "wall_seconds": round(best, 6),
        "ops_per_sec": round(work / best, 1) if best > 0 else 0.0,
    }


def instrument_events(sim) -> Callable[[], int]:
    """A reader of the kernel events ``sim`` executes from now on."""
    start = sim.events_executed

    def read() -> int:
        return sim.events_executed - start

    return read


def obs_bundle(level: str = "off"):
    """An :class:`Observability` bundle at ``level``.

    At ``level="off"`` the bundle's pull collectors still scrape final
    counts at export time, so benches read their numbers through the
    metrics registry with zero cost inside the timed region.
    """
    from repro.obs import Observability
    return Observability(level)


def scrape(obs) -> Callable[..., float]:
    """Collect the bundle's registry once and return its value reader."""
    obs.registry.collect()
    return obs.registry.value


def emit(layer: str, results: dict[str, dict[str, float]],
         extra: dict[str, Any] | None = None) -> pathlib.Path:
    """Write ``BENCH_<layer>.json`` at the repo root and echo a summary."""
    out_dir = pathlib.Path(os.environ.get("PERF_OUT_DIR", REPO_ROOT))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{layer}.json"
    payload: dict[str, Any] = {
        "bench": layer,
        "environment": environment(),
        "results": results,
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"== BENCH_{layer} ==")
    for name, row in results.items():
        print(f"  {name:<28} {row['ops_per_sec']:>14,.0f} ops/sec "
              f"({row['work']:.0f} ops in {row['wall_seconds']:.3f}s)")
    print(f"wrote {path}")
    return path
