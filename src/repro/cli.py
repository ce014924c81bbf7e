"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the library's main entry points without writing
any code:

* ``run`` — simulate traffic on one RMB ring and print statistics;
* ``chaos`` — soak the ring under a seeded chaos schedule with invariant
  monitors (and, by default, the recovery manager) armed;
* ``race`` — route one permutation family across the comparison networks;
* ``cost`` — print the Section 3.2 hardware cost table;
* ``trace`` — render the compaction process frame by frame (Figures 2/3);
* ``selfcheck`` — validate the protocol implementation in seconds;
* ``explore`` — bounded model checking of the protocol state machines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import cost_table, render_comparison, render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.core.trace_render import render_grid
from repro.networks import (
    EXTRA_NETWORKS,
    PAPER_NETWORKS,
    build_network,
    make_batch,
    permutation_pairs,
)
from repro.arena import DEFAULT_NETWORKS
from repro.sim import RandomStream
from repro.traffic import (
    ARRIVALS,
    FAMILIES,
    bernoulli_schedule,
    generate,
    replay_on_ring,
)


def _add_geometry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", "-n", type=int, default=16,
                        help="ring size N (even, >= 4)")
    parser.add_argument("--lanes", "-k", type=int, default=4,
                        help="bus lanes k")
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    """The flags ``run`` and ``saturate`` share: what runs, and how."""
    parser.add_argument("--backend", choices=("event", "batch"),
                        default="event",
                        help="execution engine: the event heap (default) or "
                             "the vectorized numpy batch backend — "
                             "bit-identical results on the subset it models "
                             "(synchronous flat rings, static faults), much "
                             "faster at scale")
    parser.add_argument("--topology", default="ring", metavar="SPEC",
                        help="'ring' (flat RMB, default), 'hier' "
                             "(auto-factored hierarchy) or 'hier:MxN' "
                             "(M local rings of N nodes bridged by a global "
                             "ring); hier reports journey-level stats plus "
                             "per-ring rates (event backend only)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject faults: 'seg:S,L@T', 'lane:L@T', "
                             "'inc:I@T', 'random:FRAC@T', '+...' to repair, "
                             "';'-separated; or '@plan.json' (event backend, "
                             "flat ring only)")
    parser.add_argument("--recovery", action="store_true",
                        help="arm the self-healing recovery manager: circuit "
                             "breakers quarantine flapping segments, wedged "
                             "buses are force-evacuated, fault storms tighten "
                             "admission (event backend, flat ring only)")
    parser.add_argument("--admission-limit", type=int, default=None,
                        metavar="N",
                        help="cap on outstanding requests per source INC "
                             "(event backend only)")
    parser.add_argument("--admission-policy", choices=("defer", "shed"),
                        default="defer",
                        help="what happens to over-limit submissions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RMB (HPCA 1996) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="simulate random traffic on an RMB ring")
    _add_geometry(run)
    _add_engine(run)
    run.add_argument("--messages", "-m", type=int, default=64,
                     help="number of messages")
    run.add_argument("--flits", "-f", type=int, default=16,
                     help="data flits per message")
    run.add_argument("--rate", type=float, default=0.02,
                     help="per-node injection probability per tick")
    run.add_argument("--asynchronous", action="store_true",
                     help="independent skewed INC clocks (rules 1-5)")
    run.add_argument("--max-retries", type=int, default=None,
                     help="per-message retry cap (default: unlimited; "
                          "8 when a fault plan is given)")
    run.add_argument("--retry-delay", type=float, default=None,
                     metavar="TICKS",
                     help="backoff floor before the first retry "
                          "(default: 16)")
    run.add_argument("--retry-backoff", type=float, default=None,
                     metavar="FACTOR",
                     help="exponential backoff multiplier (default: 2)")
    run.add_argument("--retry-jitter", type=float, default=None,
                     metavar="FRACTION",
                     help="uniform jitter fraction on each backoff delay "
                          "(default: 0.5)")
    run.add_argument("--retry-budget", type=int, default=None, metavar="N",
                     help="lifetime retry budget per source INC; once "
                          "spent, further retries abandon (default: "
                          "unlimited)")
    run.add_argument("--watchdog", action="store_true",
                     help="arm the no-progress watchdog (default windows)")
    run.add_argument("--checkpoint-every", type=float, default=None,
                     metavar="TICKS",
                     help="write a snapshot every TICKS simulated ticks")
    run.add_argument("--checkpoint-file",
                     default="rmb-checkpoint-{tick}.snap", metavar="PATH",
                     help="snapshot path template; '{tick}' expands to the "
                          "snapshot time (default: %(default)s)")
    run.add_argument("--resume-from", default=None, metavar="PATH",
                     help="restore a snapshot and run it to completion "
                          "(other run options are taken from the snapshot)")
    run.add_argument("--stats-json", default=None, metavar="PATH",
                     help="also write the stats summary as JSON")
    run.add_argument("--check-level", choices=("full", "sampled", "off"),
                     default="full",
                     help="runtime invariant monitor frequency: every "
                          "compaction cycle, every 16th, or disabled "
                          "(read-only; results are identical at all levels)")
    run.add_argument("--obs-level", choices=("off", "sampled", "full"),
                     default="off",
                     help="observability level: metrics + per-message spans "
                          "(sampled records 1-in-8 spans; observation is "
                          "passive, results are identical at all levels)")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write metrics in Prometheus text format "
                          "(raises --obs-level off to full)")
    run.add_argument("--spans-out", default=None, metavar="PATH",
                     help="write per-message span events as JSONL "
                          "(raises --obs-level off to full)")

    race = commands.add_parser(
        "race", help="race one permutation across all networks")
    _add_geometry(race)
    race.add_argument("--family", choices=sorted(FAMILIES),
                      default="random", help="permutation family")
    race.add_argument("--flits", "-f", type=int, default=16)

    arena = commands.add_parser(
        "arena",
        help="replay identical traffic patterns across topologies and "
             "rank them (the Section 3 comparison, per pattern)",
    )
    _add_geometry(arena)
    arena.add_argument("--patterns", default="ring-shift,transpose,kperm",
                       metavar="SPECS",
                       help="comma-separated pattern specs (families, "
                            "'kperm[:K]', 'uniform', 'hotspot[:F]', "
                            "'local[:R]'; default: %(default)s)")
    arena.add_argument("--networks",
                       default=",".join(DEFAULT_NETWORKS),
                       metavar="NAMES",
                       help="comma-separated registry names "
                            "(default: %(default)s)")
    arena.add_argument("--rounds", type=int, default=1,
                       help="batch rounds per pattern; sustained "
                            "k-permutation traffic uses several "
                            "(default: %(default)s)")
    arena.add_argument("--flits", "-f", type=int, default=16,
                       help="data flits per message")
    arena.add_argument("--max-ticks", type=float, default=2_000_000.0,
                       help="per-network tick budget")
    arena.add_argument("--json", default=None, metavar="PATH",
                       help="also write the arena summary as JSON")

    saturate = commands.add_parser(
        "saturate",
        help="binary-search the injection rate where a traffic pattern's "
             "latency diverges (offered-load sweep)",
    )
    _add_geometry(saturate)
    saturate.add_argument("--pattern", default="uniform", metavar="SPEC",
                          help="traffic pattern spec (default: %(default)s)")
    _add_engine(saturate)
    saturate.add_argument("--arrival", choices=ARRIVALS,
                          default="bernoulli",
                          help="arrival process (default: %(default)s)")
    saturate.add_argument("--duration", type=float, default=200.0,
                          help="injection horizon per load point, ticks")
    saturate.add_argument("--flits", "-f", type=int, default=4,
                          help="data flits per message")
    saturate.add_argument("--iterations", type=int, default=6,
                          help="bisection steps after bracketing")
    saturate.add_argument("--rate-floor", type=float, default=0.002,
                          help="lowest candidate rate (msgs/node/tick)")
    saturate.add_argument("--rate-ceiling", type=float, default=0.5,
                          help="highest candidate rate (msgs/node/tick)")
    saturate.add_argument("--json", default=None, metavar="PATH",
                          help="also write the curve summary as JSON")

    cost = commands.add_parser(
        "cost", help="print the Section 3.2 hardware cost table")
    _add_geometry(cost)

    trace = commands.add_parser(
        "trace", help="render the compaction process frame by frame")
    _add_geometry(trace)
    trace.add_argument("--frames", type=int, default=8)
    trace.add_argument("--step", type=float, default=8.0,
                       help="ticks between frames")

    commands.add_parser(
        "selfcheck",
        help="validate the protocol implementation on this machine",
    )

    chaos = commands.add_parser(
        "chaos",
        help="soak the ring under a seeded chaos schedule with invariant "
             "monitors and recovery armed",
    )
    _add_geometry(chaos)
    chaos.add_argument("--ticks", type=float, default=4000.0,
                       help="traffic horizon in ticks (the run then drains)")
    chaos.add_argument("--rate", type=float, default=0.02,
                       help="per-node injection probability per tick")
    chaos.add_argument("--flits", "-f", type=int, default=8,
                       help="data flits per message")
    chaos.add_argument("--spec", default="storm:0.3@500+2000",
                       metavar="SPEC",
                       help="chaos schedule: 'storm:FRAC@T+SPREAD[%%REP]', "
                            "'wave:L@T+STEP', 'flap:NxF@T+PERIOD', "
                            "'incs:N@T+HOLD', ';'-separated "
                            "(default: %(default)s)")
    chaos.add_argument("--no-recovery", action="store_true",
                       help="soak with the recovery loop open (faults only)")
    chaos.add_argument("--asynchronous", action="store_true",
                       help="independent skewed INC clocks (arms the "
                            "Lemma 1 skew monitor)")
    chaos.add_argument("--monitor-period", type=float, default=50.0,
                       help="ticks between invariant sweeps")
    chaos.add_argument("--no-baseline", action="store_true",
                       help="skip the healthy-twin run (no goodput "
                            "retention figure)")
    chaos.add_argument("--replay-check", action="store_true",
                       help="run the scenario twice and require "
                            "bit-identical outcomes (determinism gate)")
    chaos.add_argument("--snapshot-on-violation", default=None,
                       metavar="PATH",
                       help="checkpoint the failing ring here if any "
                            "invariant is violated")
    chaos.add_argument("--export-plan", default=None, metavar="PATH",
                       help="write the generated fault plan as JSON "
                            "(replayable via run --fault-plan @PATH)")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="also write the soak summary as JSON")

    explore = commands.add_parser(
        "explore",
        help="exhaustively model-check the protocol state machines "
             "on small configurations",
    )
    explore.add_argument("--smoke", action="store_true",
                         help="small CI sweep (N=3, k=2) instead of the "
                              "full N<=5, k<=3 scenario set")
    explore.add_argument("--max-states", type=int, default=100_000,
                         metavar="N",
                         help="abort if a single exploration exceeds N "
                              "states (default: %(default)s)")
    explore.add_argument("--include-wedge", action="store_true",
                         help="also run the known-deadlock sanity scenario "
                              "and require the detector to flag it")
    explore.add_argument("--symmetry", action="store_true",
                         help="quotient states by the scenario's valid "
                              "ring rotations before membership testing")
    explore.add_argument("--hash-compact", action="store_true",
                         help="store 128-bit digests instead of full "
                              "signatures in the seen-set")
    explore.add_argument("--faults", type=int, default=0, metavar="BUDGET",
                         help="explore fail/kill/repair interleavings with "
                              "at most BUDGET segment failures per path "
                              "(default: 0, healthy network only)")
    explore.add_argument("--scale", action="store_true",
                         help="run the N=8, k=4 scale scenario (symmetry + "
                              "hash compaction forced) instead of the sweep")
    explore.add_argument("--consistency", action="store_true",
                         help="cross-validate the scaling modes: exact vs "
                              "quotiented orbit coverage and exact vs "
                              "digest verdicts on small scenarios")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

class _Abort(Exception):
    """A one-line user error: :func:`main` prints it and exits 1."""


def command_run(args: argparse.Namespace) -> int:
    """``run``: one Bernoulli workload on a flat ring or a hier fabric.

    The network comes from :func:`~repro.traffic.saturation.build_rmb`,
    which refuses what the batch backend or a fabric does not model by
    field and flag, in the words ``saturate`` uses.  The schedule is
    generated, replayed, run and drained the same way on every engine;
    only the title and the report differ.  A fabric's headline table is
    *journey-level* (end to end across bridge hops, what a PE actually
    experiences), followed by a per-ring breakdown.  ``--check-level``
    is accepted but moot on batch: it has no runtime invariant monitor —
    its conformance guarantee is the differential suite in
    ``tests/batch``.
    """
    if args.resume_from:
        return _command_resume(args)
    if args.rate <= 0.0:
        raise _Abort("--rate must be positive")
    from repro.core.config import RetryPolicy
    from repro.errors import ConfigurationError, ProtocolError
    from repro.traffic.saturation import build_rmb
    fault_plan = _fault_plan(args)
    max_retries = args.max_retries
    if max_retries is None and fault_plan is not None:
        # A permanently dead source column would otherwise retry forever
        # and the drain below would never terminate.
        max_retries = 8
    try:
        retry = RetryPolicy(max_retries=max_retries).with_overrides(
            **{key: value for key, value in (
                ("delay", args.retry_delay),
                ("backoff", args.retry_backoff),
                ("jitter", args.retry_jitter),
                ("node_budget", args.retry_budget),
            ) if value is not None})
    except ConfigurationError as exc:
        raise _Abort(f"bad retry policy: {exc}") from None
    batch = args.backend == "batch"
    hier = args.topology != "ring"
    if hier:
        from repro.networks.registry import hier_shape
        try:
            locals_count, nodes = hier_shape(args.topology, args.nodes)
        except ConfigurationError as exc:
            raise _Abort(f"bad --topology: {exc}") from None
    config = RMBConfig(nodes=args.nodes, lanes=args.lanes, cycle_period=2.0,
                       retry=retry,
                       admission_limit=args.admission_limit,
                       admission_policy=args.admission_policy,
                       check_level=args.check_level,
                       synchronous=not args.asynchronous)
    obs = _build_obs(args)
    try:
        network = build_rmb(config, args.backend, args.topology, args.seed,
                            fault_plan=fault_plan, watchdog=args.watchdog,
                            recovery=args.recovery, obs=obs,
                            checkpoint_every=args.checkpoint_every)
    except ProtocolError as exc:
        raise _Abort(str(exc)) from None
    rng = RandomStream(args.seed, name="cli")
    duration = max(1, int(args.messages / (args.rate * args.nodes)))
    schedule = bernoulli_schedule(
        args.nodes, duration, args.rate, args.flits, rng)
    if len(schedule) == 0:
        raise _Abort("the requested rate produced no messages; raise "
                     "--rate or --messages")
    if batch:
        from repro.batch import replay_on_batch
        replay_on_batch(network, schedule)
    else:
        replay_on_ring(network, schedule)
    if hier:
        title = f"hier RMB {locals_count}x{nodes} k={args.lanes}"
    else:
        mode = "asynchronous" if args.asynchronous else "synchronous"
        title = (f"RMB N={args.nodes} k={args.lanes} "
                 f"({mode}{', batch' if batch else ''})")
    title += f", {len(schedule)} messages @ rate {args.rate}"
    # Every engine's clock starts at 0, so the horizon is also the
    # absolute stop time a resumed run must reach.
    run_until = schedule.horizon() + 1
    if args.checkpoint_every is not None:
        from repro.supervision import PeriodicCheckpointer
        # The title reproduces the report header verbatim on resume.
        PeriodicCheckpointer(
            network, args.checkpoint_every, args.checkpoint_file,
            meta={"run_until": run_until, "title": title},
        )
    network.run(run_until)
    network.drain()
    if hier:
        _report_fabric(network, title, args.stats_json)
    else:
        _report_run(network, title, args.stats_json)
    _export_obs(obs, args)
    return 0


def _fault_plan(args: argparse.Namespace):
    """The parsed ``--fault-plan``, or ``None`` when it is not given."""
    if not args.fault_plan:
        return None
    from repro.errors import FaultError
    from repro.faults import parse_spec
    try:
        return parse_spec(args.fault_plan, args.nodes, args.lanes,
                          seed=args.seed)
    except FaultError as exc:
        raise _Abort(f"bad --fault-plan: {exc}") from None


def _write_json(path: Optional[str], payload) -> None:
    """Write one JSON artifact (sorted, indented); nothing without a path."""
    if not path:
        return
    import json
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _build_obs(args: argparse.Namespace):
    """The run's observability bundle, or ``None`` when nothing asked.

    ``--obs-level off`` (the default) builds no bundle, so an unobserved
    run's construction is byte-for-byte what it was before the
    observability layer existed; ``--metrics-out`` or ``--spans-out``
    raise it to ``full``.
    """
    level = args.obs_level
    if level == "off":
        if not (args.metrics_out or args.spans_out):
            return None
        level = "full"
    from repro.obs import Observability
    return Observability(level)


def _export_obs(obs, args: argparse.Namespace) -> None:
    if obs is None:
        return
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
    if args.spans_out:
        obs.write_spans(args.spans_out)
    print()
    print(obs.report())


def _command_resume(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotError
    from repro.hier import RingFabric
    from repro.supervision import resume_run
    try:
        ring, manifest = resume_run(args.resume_from)
    except (OSError, SnapshotError) as exc:
        raise _Abort(f"cannot resume from {args.resume_from}: {exc}") \
            from None
    meta = manifest.get("meta", {})
    title = meta.get("title", f"resumed from {args.resume_from}")
    if isinstance(ring, RingFabric):
        _report_fabric(ring, title, args.stats_json)
    else:
        _report_run(ring, title, args.stats_json)
    return 0


def _report_run(ring, title: str,
                stats_json: Optional[str]) -> None:
    # ``ring`` is an RMBRing or a BatchRing; the batch backend has no
    # fault driver / recovery manager / watchdog, so those sections are
    # attribute-guarded.
    stats = ring.stats()
    rows = [{"metric": key, "value": round(value, 3)}
            for key, value in stats.summary().items()]
    print(render_table(rows, title=title))
    faults = getattr(ring, "faults", None)
    if faults is not None:
        print("\nfault plan:")
        print(faults.plan.describe())
        fault_rows = [{"metric": key, "value": value}
                      for key, value in faults.stats.summary().items()]
        fault_rows.append({"metric": "evacuation_moves",
                           "value": ring.compaction.stats.evacuations})
        fault_rows.append({"metric": "min_windowed_throughput",
                           "value": round(stats.min_windowed_throughput(), 3)})
        print(render_table(fault_rows, title="degraded-mode accounting"))
    recovery = getattr(ring, "recovery", None)
    if recovery is not None:
        recovery_rows = [{"metric": key, "value": value}
                         for key, value in recovery.stats.summary().items()]
        recovery_rows.append({"metric": "open_breakers",
                              "value": recovery.open_breakers()})
        print(render_table(recovery_rows, title="recovery actions"))
    watchdog = getattr(ring, "watchdog", None)
    if watchdog is not None and len(watchdog.incidents):
        print("\nwatchdog incidents:")
        print(watchdog.incidents.render())
    _write_json(stats_json, stats.summary())


def _report_fabric(network, title: str, stats_json: Optional[str]) -> None:
    """Journey-level table, per-ring legs, and the JSON with both."""
    stats = network.stats()
    rows = [{"metric": key, "value": round(value, 3)}
            for key, value in stats.summary().items()]
    print(render_table(rows, title=f"{title} (journey-level)"))
    by_ring = network.stats_by_ring()
    ring_rows = [{
        "ring": name,
        "offered": int(ring_stats.offered),
        "delivered": int(ring_stats.completed),
        "mean_latency": round(ring_stats.latency.mean, 2),
        "nacks": int(ring_stats.nacks),
    } for name, ring_stats in by_ring.items()]
    print()
    print(render_table(ring_rows, title="per-ring legs"))
    _write_json(stats_json, {
        **stats.summary(),
        "rings": {name: ring_stats.summary()
                  for name, ring_stats in by_ring.items()},
    })


def command_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import SoakConfig, parse_chaos_spec, run_soak
    from repro.errors import ConfigurationError, FaultError
    try:
        soak = SoakConfig(
            nodes=args.nodes,
            lanes=args.lanes,
            ticks=args.ticks,
            rate=args.rate,
            data_flits=args.flits,
            seed=args.seed,
            spec=args.spec,
            recovery=not args.no_recovery,
            asynchronous=args.asynchronous,
            monitor_period=args.monitor_period,
        )
        plan = parse_chaos_spec(args.spec, args.nodes, args.lanes,
                                seed=args.seed)
    except (ConfigurationError, FaultError) as exc:
        raise _Abort(f"bad chaos scenario: {exc}") from None
    if args.export_plan:
        with open(args.export_plan, "w", encoding="utf-8") as handle:
            handle.write(plan.to_json())
            handle.write("\n")
        print(f"fault plan ({len(plan)} events) -> {args.export_plan}")
    result = run_soak(soak, healthy_baseline=not args.no_baseline,
                      snapshot_path=args.snapshot_on_violation)
    print(result.report())
    failed = bool(result.violations) or result.pending != 0
    if args.replay_check:
        again = run_soak(soak, healthy_baseline=False)
        if again.signature == result.signature:
            print(f"replay determinism: OK "
                  f"(signature {result.signature[:16]}…)")
        else:
            print(f"replay determinism FAILED: {result.signature[:16]}… "
                  f"vs {again.signature[:16]}…")
            failed = True
    _write_json(args.json, result.summary())
    if failed:
        print("\nchaos soak FAILED")
        return 1
    return 0


def command_race(args: argparse.Namespace) -> int:
    rng = RandomStream(args.seed, name="cli")
    perm = generate(args.family, args.nodes, rng)
    batch_pairs = permutation_pairs(perm)
    rows = []
    for name in PAPER_NETWORKS + EXTRA_NETWORKS:
        network = build_network(name, args.nodes, args.lanes,
                                seed=args.seed)
        result = network.route_batch(
            make_batch(batch_pairs, data_flits=args.flits),
            max_ticks=2_000_000,
        )
        rows.append(result.row())
    print(render_comparison(
        f"{args.family} permutation, N={args.nodes}, k={args.lanes}",
        rows, baseline_key="rmb", value_key="makespan",
    ))
    return 0


def command_arena(args: argparse.Namespace) -> int:
    from repro.arena import run_arena
    from repro.errors import ReproError
    patterns = [spec.strip() for spec in args.patterns.split(",")
                if spec.strip()]
    networks = [name.strip() for name in args.networks.split(",")
                if name.strip()]
    try:
        report = run_arena(
            args.nodes, args.lanes, patterns, networks=networks,
            data_flits=args.flits, seed=args.seed, rounds=args.rounds,
            max_ticks=args.max_ticks)
    except ReproError as exc:
        raise _Abort(f"bad arena: {exc}") from None
    print(report.render())
    _write_json(args.json, report.summary())
    return 0


def command_saturate(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.traffic import SaturationConfig, make_pattern, \
        saturation_search
    cfg = SaturationConfig(
        nodes=args.nodes, lanes=args.lanes, data_flits=args.flits,
        seed=args.seed, duration=args.duration, backend=args.backend,
        arrival=args.arrival, topology=args.topology,
        iterations=args.iterations,
        rate_floor=args.rate_floor, rate_ceiling=args.rate_ceiling,
        fault_plan=_fault_plan(args), admission_limit=args.admission_limit,
        admission_policy=args.admission_policy, recovery=args.recovery)
    try:
        pattern = make_pattern(args.pattern, args.nodes, k=args.lanes,
                               seed=args.seed)
        curve = saturation_search(cfg, pattern)
    except ReproError as exc:
        raise _Abort(str(exc)) from None
    rows = [dict(row, rate=f"{row['rate']:.5f}") for row in curve.rows()]
    print(render_table(
        rows,
        columns=["rate", "offered", "delivered", "completion",
                 "mean_latency", "p95_latency", "throughput", "stable"],
        title=(f"{pattern.describe()} via {args.arrival} arrivals, "
               f"N={args.nodes} k={args.lanes}, "
               f"backend={args.backend}"
               + (f", topology={args.topology}"
                  if args.topology != "ring" else "")),
    ))
    peak = curve.saturation_point()
    if peak is not None and peak.ring_rates is not None:
        parts = ", ".join(f"{name}={rate:.4f}"
                          for name, rate in peak.ring_rates.items())
        print(f"\nper-ring delivered legs/tick at the saturation point: "
              f"{parts}")
    if curve.unstable_rate is None:
        print(f"\nstable through the whole bracket; saturation >= "
              f"{curve.saturation_rate:.5f} msgs/node/tick")
    elif curve.saturation_rate == 0.0:
        print(f"\nunstable at the rate floor "
              f"{curve.unstable_rate:.5f} msgs/node/tick")
    else:
        print(f"\nsaturation rate: {curve.saturation_rate:.5f} "
              f"msgs/node/tick (unstable at {curve.unstable_rate:.5f})")
    _write_json(args.json, curve.summary())
    return 0


def command_cost(args: argparse.Namespace) -> int:
    rows = [row.as_dict() for row in cost_table(args.nodes, args.lanes)]
    print(render_table(
        rows,
        title=(f"Section 3.2 hardware cost, N={args.nodes}, "
               f"k={args.lanes}"),
    ))
    return 0


def command_trace(args: argparse.Namespace) -> int:
    config = RMBConfig(nodes=args.nodes, lanes=args.lanes, cycle_period=2.0)
    ring = RMBRing(config, seed=args.seed)
    rng = RandomStream(args.seed, name="cli")
    for index in range(args.nodes // 2):
        source = rng.randint(0, args.nodes - 1)
        destination = (source + rng.randint(2, args.nodes - 2)) % args.nodes
        delay = index * args.step
        message = Message(index, source, destination, data_flits=80,
                          created_at=delay)
        ring.sim.schedule_at(delay, _submitter(ring, message))
    for _ in range(args.frames):
        print(f"--- t = {ring.sim.now:6.1f}  cycle = {ring.cycle_count()}")
        print(render_grid(ring.grid))
        print()
        ring.run(args.step)
    ring.drain()
    print(f"drained: {ring.stats().completed} messages, "
          f"{ring.compaction.stats.moves} compaction moves")
    return 0


def _submitter(ring: RMBRing, message: Message):
    def submit() -> None:
        ring.submit(message)

    return submit


def command_selfcheck(args: argparse.Namespace) -> int:
    from repro.core.selfcheck import run_selfcheck

    results = run_selfcheck()
    rows = [{"check": result.name,
             "status": "PASS" if result.passed else "FAIL",
             "detail": result.detail}
            for result in results]
    print(render_table(rows, title="repro selfcheck"))
    failed = sum(1 for result in results if not result.passed)
    if failed:
        print(f"\n{failed} check(s) FAILED")
        return 1
    print(f"\nall {len(results)} checks passed")
    return 0


def command_explore(args: argparse.Namespace) -> int:
    from repro.protocol.explore import (
        ExploreOptions,
        deadlock_scenario,
        explore_all,
        explore_lifecycle,
        smoke_scenarios,
    )

    if args.scale:
        return _explore_scale(args)
    if args.consistency:
        return _explore_consistency(args)

    options = ExploreOptions(symmetry=args.symmetry,
                             hash_compact=args.hash_compact,
                             fault_budget=args.faults)
    handshake_nodes = (2, 3) if args.smoke else (2, 3, 4, 5)
    scenarios = smoke_scenarios() if args.smoke else None
    sweep = explore_all(handshake_nodes=handshake_nodes,
                        scenarios=scenarios, max_states=args.max_states,
                        options=options)
    for line in sweep.lines():
        print(line)
    print(f"total: {sweep.total_states} states explored")
    failed = not sweep.ok
    if args.include_wedge:
        wedge = deadlock_scenario()
        report = explore_lifecycle(wedge.config(), wedge.messages(),
                                   label=wedge.label,
                                   max_states=args.max_states,
                                   options=options)
        if report.deadlocks and not report.violations:
            print(f"wedge sanity: {wedge.label} correctly flagged as "
                  f"deadlocked ({report.states} states)")
        else:
            print(f"wedge sanity FAILED: {wedge.label} deadlock not "
                  f"detected ({len(report.deadlocks)} deadlocks, "
                  f"{len(report.violations)} violations)")
            failed = True
    if failed:
        print("\nmodel checking FAILED")
        return 1
    print("all properties hold on every reachable state")
    return 0


def _explore_scale(args: argparse.Namespace) -> int:
    """The E31 scale run: quotiented + compacted N=8, k=4 exploration."""
    import time

    from repro.protocol.explore import (
        ExploreOptions,
        explore_lifecycle,
        scale_scenario,
    )

    scenario = scale_scenario()
    options = ExploreOptions(symmetry=True, hash_compact=True,
                             fault_budget=args.faults)
    max_states = max(args.max_states, 600_000)
    start = time.perf_counter()
    report = explore_lifecycle(scenario.config(), scenario.messages(),
                               label=scenario.label, max_states=max_states,
                               options=options)
    elapsed = time.perf_counter() - start
    status = "ok" if report.ok else (
        f"{len(report.violations)} violations, "
        f"{len(report.deadlocks)} deadlocks")
    print(f"scale {scenario.label}: {report.states} canonical states, "
          f"{report.edges} edges, {report.completed_runs} quiescent "
          f"(sym x{report.group_order}, {report.mode}) "
          f"in {elapsed:.1f}s [{status}]")
    if not report.ok:
        print("\nscale exploration FAILED")
        return 1
    print("all properties hold on every reachable canonical state")
    return 0


def _explore_consistency(args: argparse.Namespace) -> int:
    """Cross-validate the scaling modes against the exact explorer.

    Two checks per small scenario: (a) every orbit of the exact
    reachable set appears in the quotiented run's seen-set, and (b)
    digest mode reproduces the exact-set run's counts and verdicts.
    """
    from repro.protocol.explore import (
        ExploreOptions,
        Scenario,
        _canonical_signature,
        _prepare_group,
        explore_lifecycle,
        symmetry_group,
    )

    scenarios = [
        Scenario("2x1-pair", 2, 1, ((0, 1), (1, 0))),
        Scenario("3x2-ring", 3, 2, ((0, 1), (1, 2), (2, 0))),
        Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0))),
    ]
    failed = False
    for scenario in scenarios:
        config = scenario.config()
        messages = scenario.messages()
        group = _prepare_group(symmetry_group(config, messages))
        exact = explore_lifecycle(
            config, messages, label=scenario.label,
            max_states=args.max_states,
            options=ExploreOptions(keep_state_keys=True))
        orbits = {_canonical_signature(key, config.nodes, group)
                  for key in exact.state_keys}
        quotient = explore_lifecycle(
            config, messages, label=scenario.label,
            max_states=args.max_states,
            options=ExploreOptions(symmetry=True, keep_state_keys=True))
        covered = orbits <= set(quotient.state_keys)
        hashed = explore_lifecycle(
            config, messages, label=scenario.label,
            max_states=args.max_states,
            options=ExploreOptions(hash_compact=True))
        digests_agree = (
            (hashed.states, hashed.edges, hashed.completed_runs, hashed.ok)
            == (exact.states, exact.edges, exact.completed_runs, exact.ok))
        verdict = "ok" if covered and digests_agree else "MISMATCH"
        print(f"consistency {scenario.label}: exact={exact.states} "
              f"orbits={len(orbits)} quotient={quotient.states} "
              f"(sym x{quotient.group_order}) covered={covered} "
              f"digests={digests_agree} [{verdict}]")
        failed = failed or verdict != "ok"
    if failed:
        print("\nconsistency check FAILED")
        return 1
    print("scaling modes agree with the exact explorer")
    return 0


COMMANDS = {
    "run": command_run,
    "chaos": command_chaos,
    "race": command_race,
    "arena": command_arena,
    "saturate": command_saturate,
    "cost": command_cost,
    "trace": command_trace,
    "selfcheck": command_selfcheck,
    "explore": command_explore,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A user error (an :class:`_Abort`, or geometry the library rejects
    with :class:`~repro.errors.ConfigurationError` or
    :class:`~repro.errors.TopologyError`) prints one line and exits 1.
    Protocol failures keep their traceback.
    """
    from repro.errors import ConfigurationError, TopologyError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (_Abort, ConfigurationError, TopologyError) as exc:
        print(exc)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
