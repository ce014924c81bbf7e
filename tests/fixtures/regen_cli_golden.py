"""Regenerate the CLI golden files.

Every case below is one fixed-seed ``python -m repro`` command line at a
small size.  Its stdout and every file it writes into its working
directory are committed byte-for-byte under
``tests/fixtures/cli_golden/<case>/`` (stdout as ``stdout.txt``, files
under their own names).  Snapshot files are pickles of the live object
graph, which any refactor of a pickled class changes, so a case that
checkpoints pins the snapshot *names* (``snapshots.txt``) and the
``resume`` case pins what resuming the first of them prints and writes.

``flags.json`` pins the parser surface: for each subcommand, the
``option_strings``, ``default`` and ``choices`` of every action, so a
flag that is added, removed or re-defaulted shows up as a diff.

``tests/test_cli_golden.py`` reruns every case and byte-compares.  These
files were generated before the CLI's shared flags, fault-plan parsing
and run paths were consolidated; regenerating them is only legitimate
for an intentional behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_cli_golden.py

``explore --scale`` is not pinned: it prints wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shutil
import tempfile

from repro.cli import build_parser, main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden"

#: The workload the run cases share (and event == batch is checked on).
_RUN = ["run", "-n", "16", "-k", "4", "-m", "32", "--rate", "0.05",
        "--flits", "6", "--seed", "3"]
_HIER = ["run", "--topology", "hier:4x4", "-n", "16", "-k", "4", "-m", "32",
         "--rate", "0.05", "--flits", "6", "--seed", "5",
         "--stats-json", "stats.json"]
_SAT = ["saturate", "-n", "8", "-k", "3", "--pattern", "uniform",
        "--duration", "40", "--iterations", "2", "--json", "curve.json"]
_STORM = ["chaos", "-n", "16", "-k", "4", "--seed", "7", "--ticks", "10000",
          "--rate", "0.02", "--flits", "8",
          "--spec", "storm:0.35@500+3000%400"]

CASES: dict[str, list[str]] = {
    "run_sync": _RUN + ["--stats-json", "stats.json"],
    "run_async": _RUN + ["--asynchronous"],
    "run_fault_plan": _RUN + ["--fault-plan", "lane:2@30~8;+lane:2@150",
                              "--stats-json", "stats.json"],
    "run_obs_full": _RUN + ["--obs-level", "full",
                            "--metrics-out", "metrics.prom",
                            "--spans-out", "spans.jsonl"],
    "run_async_watchdog": _RUN + ["--asynchronous", "--watchdog"],
    # Supervision end to end: a flapping segment trips its breaker
    # (open, quarantine hold, half-open, close), the flaps enter and
    # leave degraded mode, and five retry storms are reported by the
    # watchdog and acted on by the recovery manager.
    "run_supervised": ["run", "-n", "16", "-k", "2", "-m", "96",
                       "--rate", "0.2", "--flits", "16", "--seed", "1",
                       "--fault-plan",
                       "seg:3,1@40;+seg:3,1@80;seg:3,1@120;+seg:3,1@160;"
                       "seg:3,1@200;+seg:3,1@240;seg:9,0@60;+seg:9,0@500",
                       "--watchdog", "--recovery", "--max-retries", "40",
                       "--obs-level", "full", "--metrics-out", "metrics.prom",
                       "--stats-json", "stats.json"],
    "run_batch": _RUN + ["--backend", "batch", "--stats-json", "stats.json"],
    "run_hier": _HIER,
    # A fabric's member metrics and spans share one registry; its stats
    # equal run_hier's byte for byte (observation is passive).
    "run_hier_obs": _HIER + ["--obs-level", "full",
                             "--metrics-out", "metrics.prom",
                             "--spans-out", "spans.jsonl"],
    "trace": ["trace", "-n", "8", "-k", "3", "--frames", "4"],
    "arena": ["arena", "-n", "16", "-k", "4",
              "--patterns", "ring-shift,transpose",
              "--networks", "rmb,mesh,multibus", "--json", "arena.json"],
    # Every RMB network the arena races, flat ring and both fabrics.
    "arena_fabrics": ["arena", "-n", "16", "-k", "4",
                      "--patterns", "ring-shift,transpose,tornado",
                      "--networks", "rmb,rmb-2ring,hier:4x4",
                      "--json", "arena.json"],
    "selfcheck": ["selfcheck"],
    # The checkpoint/resume command line CI ran as a shell smoke step.
    "checkpoint": ["run", "-n", "16", "-k", "4", "-m", "40", "--rate", "0.05",
                   "--flits", "6", "--seed", "9",
                   "--fault-plan", "seg:3,1@40;+seg:3,1@160",
                   "--watchdog", "--admission-limit", "4",
                   "--checkpoint-every", "120",
                   "--checkpoint-file", "ck-{tick}.snap",
                   "--stats-json", "full.json"],
    "saturate_event": _SAT,
    "saturate_batch": _SAT + ["--backend", "batch"],
    "saturate_hier": ["saturate", "--topology", "hier:4x4", "-n", "16",
                      "-k", "4", "--duration", "40", "--iterations", "1",
                      "--json", "curve.json"],
    "chaos": ["chaos", "-n", "12", "-k", "3", "--seed", "7",
              "--ticks", "600", "--spec", "storm:0.3@100+300",
              "--json", "soak.json"],
    # The resilience acceptance storm, with the recovery loop armed and
    # open: 22 of 64 lane-segments cycle through fail -> repair, and a
    # soak that ends with a violation or a pending message exits 1.
    "chaos_storm": _STORM + ["--json", "soak.json"],
    "chaos_storm_open": _STORM + ["--no-recovery", "--no-baseline",
                                  "--json", "soak.json"],
    # The model-checking command lines CI runs: state and edge counts
    # are exact, so a change to what the explorer reaches shows here.
    "explore_smoke": ["explore", "--smoke", "--include-wedge"],
    "explore_faults": ["explore", "--smoke", "--faults", "1"],
    "explore_consistency": ["explore", "--consistency"],
}

#: The resume case runs in the checkpoint case's directory, on its
#: first snapshot (the one ``ls ck-*.snap | head -n 1`` picks).
RESUME_FROM = "checkpoint"


def resume_argv(workdir: pathlib.Path) -> list[str]:
    first = sorted(path.name for path in workdir.glob("*.snap"))[0]
    return ["run", "--resume-from", first, "--stats-json", "resumed.json"]


def run_case(argv: list[str], workdir: pathlib.Path) -> dict[str, bytes]:
    """Run one command line in ``workdir``; return what it produced.

    The result maps ``stdout.txt`` and every new non-snapshot file to its
    bytes, plus ``snapshots.txt`` listing new snapshot names if any.
    """
    before = {path.name for path in workdir.iterdir()}
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise AssertionError(f"{argv} exited {code}:\n{stdout.getvalue()}")
    outputs = {"stdout.txt": stdout.getvalue().encode("utf-8")}
    created = sorted(path for path in workdir.iterdir()
                     if path.name not in before)
    snapshots = [path.name for path in created if path.suffix == ".snap"]
    for path in created:
        if path.suffix != ".snap":
            outputs[path.name] = path.read_bytes()
    if snapshots:
        outputs["snapshots.txt"] = "".join(
            f"{name}\n" for name in snapshots).encode("utf-8")
    return outputs


def build_outputs(root: pathlib.Path) -> dict[str, dict[str, bytes]]:
    """Every case's outputs, each run in its own directory under ``root``."""
    outputs = {}
    for case, argv in CASES.items():
        workdir = root / case
        workdir.mkdir()
        outputs[case] = run_case(argv, workdir)
    outputs["resume"] = run_case(resume_argv(root / RESUME_FROM),
                                 root / RESUME_FROM)
    return outputs


def flag_table() -> dict[str, dict[str, dict]]:
    """``{subcommand: {first option string: surface}}`` from the parser."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if action.choices and action.dest == "command")
    table = {}
    for name, sub in sorted(subparsers.choices.items()):
        table[name] = {
            action.option_strings[0]: {
                "option_strings": list(action.option_strings),
                "default": action.default,
                "choices": (list(action.choices)
                            if action.choices is not None else None),
            }
            for action in sorted(sub._actions,
                                 key=lambda a: a.option_strings[0])
        }
    return table


def flags_json() -> str:
    return json.dumps(flag_table(), indent=2, sort_keys=True) + "\n"


def main_regen() -> None:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    with tempfile.TemporaryDirectory() as scratch:
        for case, files in build_outputs(pathlib.Path(scratch)).items():
            (GOLDEN / case).mkdir()
            for filename, data in files.items():
                (GOLDEN / case / filename).write_bytes(data)
            print(f"wrote {GOLDEN / case} ({len(files)} files)")
    (GOLDEN / "flags.json").write_text(flags_json(), encoding="utf-8")
    print(f"wrote {GOLDEN / 'flags.json'}")


if __name__ == "__main__":
    main_regen()
