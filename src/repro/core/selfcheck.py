"""One-shot self-validation of the protocol implementation.

``python -m repro selfcheck`` (or :func:`run_selfcheck`) executes a fixed
battery of protocol checks in a few seconds — the things a user should
see pass before trusting any experiment on their machine:

1. Figure 5: a straight virtual bus drops one lane in exactly two cycles.
2. Table 1: no illegal status code is observable under live traffic.
3. Lemma 1: neighbour cycle skew stays <= 1 on skewed clocks.
4. Theorem 1 (safety): a mixed workload drains with clean segments,
   every flit accounted for.
5. The analytic latency model matches the simulator tick-for-tick.
6. Sync and async compaction agree on the packed fixed point.

Each check returns a :class:`CheckResult`; the battery never raises, so
a failure report is always complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.latency_model import unloaded_latency
from repro.core.compaction import CompactionEngine
from repro.core.config import RMBConfig
from repro.core.cycles import max_neighbour_skew
from repro.core.flits import Message, MessageRecord
from repro.core.network import RMBRing
from repro.core.ports import all_ports
from repro.core.segments import SegmentGrid
from repro.core.status import LEGAL_CODES
from repro.core.virtual_bus import BusPhase, VirtualBus


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    detail: str


def _check_figure5() -> CheckResult:
    config = RMBConfig(nodes=8, lanes=3)
    grid = SegmentGrid(8, 3)
    message = Message(0, 0, 5, data_flits=1)
    bus = VirtualBus(0, message, MessageRecord(message), 8)
    bus.phase = BusPhase.STREAMING
    for segment in range(5):
        grid.claim(segment, 2, 0)
        bus.hops.append(2)
    engine = CompactionEngine(config, grid, {0: bus})
    engine.global_pass(0)
    engine.global_pass(1)
    ok = bus.hops == [1] * 5
    return CheckResult("figure5-two-cycle-move", ok,
                       f"lanes after 2 cycles: {bus.hops}")


def _check_table1() -> CheckResult:
    ring = RMBRing(RMBConfig(nodes=10, lanes=3, cycle_period=2.0), seed=1)
    for index in range(8):
        ring.submit(Message(index, index, (index + 4) % 10, data_flits=16))
    observed: set[int] = set()
    for _ in range(80):
        ring.run(2)
        observed.update(view.code
                        for view in all_ports(ring.grid, ring.buses))
    ring.drain(max_ticks=500_000)
    illegal = observed - LEGAL_CODES
    return CheckResult("table1-legal-codes", not illegal,
                       f"codes observed: {sorted(bin(c) for c in observed)}")


def _check_lemma1() -> CheckResult:
    config = RMBConfig(nodes=10, lanes=3, synchronous=False,
                       clock_drift=0.05, clock_jitter_fraction=0.1)
    ring = RMBRing(config, seed=2)
    worst = 0
    for _ in range(40):
        ring.run(16)
        worst = max(worst, max_neighbour_skew(ring.controllers))
    return CheckResult("lemma1-cycle-skew", worst <= 1,
                       f"max neighbour skew observed: {worst}")


def _check_theorem1_safety() -> CheckResult:
    ring = RMBRing(RMBConfig(nodes=12, lanes=3, cycle_period=2.0), seed=3)
    expected_flits = 0
    for index in range(20):
        source = (index * 5) % 12
        destination = (source + 1 + index % 10) % 12
        if destination == source:
            destination = (destination + 1) % 12
        message = Message(index, source, destination,
                          data_flits=4 + index % 9)
        expected_flits += message.total_flits
        ring.submit(message)
    ring.drain(max_ticks=1_000_000)
    ok = (ring.stats().completed == 20
          and ring.grid.occupied_segments() == 0
          and ring.routing.flits_delivered == expected_flits)
    return CheckResult(
        "theorem1-safety", ok,
        f"completed {ring.stats().completed}/20, "
        f"segments left {ring.grid.occupied_segments()}, "
        f"flits {ring.routing.flits_delivered}/{expected_flits}",
    )


def _check_latency_model() -> CheckResult:
    mismatches = []
    for span, flits in ((1, 0), (4, 10), (9, 3)):
        ring = RMBRing(RMBConfig(nodes=12, lanes=3, cycle_period=2.0), seed=4)
        record = ring.submit(Message(0, 0, span, data_flits=flits))
        ring.drain()
        predicted = unloaded_latency(span, flits)
        if record.latency() != predicted.delivery:
            mismatches.append((span, flits, record.latency(),
                               predicted.delivery))
    return CheckResult("latency-model-exact", not mismatches,
                       f"mismatches: {mismatches}" if mismatches
                       else "all phases tick-exact")


def _check_sync_async_agree() -> CheckResult:
    """Both cycle-control modes must reach *a* fully-packed fixed point
    carrying identical transactions.  (The fixed point itself is not
    unique — move order selects among equally-packed shapes — so the
    check is on packedness and occupancy, not exact lane assignments.)"""

    def quiescent_state(synchronous: bool):
        config = RMBConfig(nodes=8, lanes=4, cycle_period=2.0,
                           synchronous=synchronous)
        ring = RMBRing(config, seed=5)
        for index in range(4):
            ring.submit(Message(index, index * 2, (index * 2 + 3) % 8,
                                data_flits=300))
        ring.run(200)
        packed = all(not ring.compaction.move_legal(segment, lane)
                     for segment in range(8) for lane in range(1, 4))
        occupancy = [len(ring.grid.used_lanes(segment))
                     for segment in range(8)]
        live = ring.routing.live_bus_count()
        ring.drain(max_ticks=1_000_000)
        return packed, occupancy, live

    sync_packed, sync_occupancy, sync_live = quiescent_state(True)
    async_packed, async_occupancy, async_live = quiescent_state(False)
    ok = (sync_packed and async_packed
          and sync_occupancy == async_occupancy
          and sync_live == async_live == 4)
    return CheckResult(
        "sync-async-fixed-point", ok,
        f"packed={sync_packed}/{async_packed}, "
        f"occupancy sync={sync_occupancy} async={async_occupancy}",
    )


CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_figure5,
    _check_table1,
    _check_lemma1,
    _check_theorem1_safety,
    _check_latency_model,
    _check_sync_async_agree,
)


def run_selfcheck() -> list[CheckResult]:
    """Run the full battery; exceptions become failed results."""
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as error:  # noqa: BLE001 - report, never raise
            results.append(CheckResult(check.__name__.strip("_"), False,
                                       f"raised {error!r}"))
    return results
