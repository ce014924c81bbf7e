"""Property test: the optimised hot path is bit-identical to the reference.

The performance work (ISSUE PR 3) must be *behaviour-preserving*: the
incremental compaction candidate search, the monitor sampling levels and
the kernel fast lane may only change how fast a run executes, never what
it computes.  This test pits the optimised configuration against the
reference slow path — exhaustive compaction scans
(``engine.incremental = False``) with full invariant checking — across
random seeds and fault plans, and requires byte-identical observables:
the stats summary serialised as JSON, the protocol trace, the grid
signature, every message's lifecycle timestamps, and the checkpoint
manifest of a mid-run snapshot.

Parked headers (DESIGN.md P4) skip the full evaluation while the epochs
of their head and next columns are unchanged; the soundness tests below
run that full evaluation anyway before every pass and require it to
agree that each such header stalls.  Before every pass they also compare
the per-pass bus maps, the ready nodes (DESIGN.md P5) and the grid's
occupancy and faulty indexes with a twin that rebuilt them from primary
state (P8).  A stall oracle kept entirely in the test pins the deferred
stall accounting: every header that neither advances nor is
fault-Nacked during a header pass stalls exactly once.

Synchronous compaction commits each candidate that survives D3 without
re-checking D1 (DESIGN.md P6); a soundness test below re-checks it
before every such commit anyway and requires it to hold.

A fabric's members share one ring clock, one kernel event per tick and
per cycle period, and an idle ring's tick and compaction pass return at
once (DESIGN.md P9); the clock tests below run every member on a clock
of its own, each event where it used to be and every tick in full, as
the reference.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.compaction import CompactionEngine
from repro.core.config import RetryPolicy
from repro.core.network import RingClock
from repro.core.routing import RoutingEngine
from repro.core.status import PortHealth
from repro.core.virtual_bus import BusPhase
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hier import HierRMB, Hop, RingFabric, RouteMap
from repro.sim import RandomStream
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes
from repro.supervision import watchdog as watchdog_module
from repro.supervision.admission import AdmissionController
from repro.traffic import bernoulli_schedule, replay_on_fabric
from tests.core.rebuilt import rebuilt

NODES = 8
LANES = 3
HORIZON = 90.0


@st.composite
def fault_plans(draw):
    """None, or 1-2 segment failures (each optionally repaired)."""
    if not draw(st.booleans()):
        return None
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        segment = draw(st.integers(min_value=0, max_value=NODES - 1))
        lane = draw(st.integers(min_value=0, max_value=LANES - 1))
        fail_at = float(draw(st.integers(min_value=5, max_value=60)))
        events.append(FaultEvent(time=fail_at, kind=FaultKind.SEGMENT,
                                 action="fail", segment=segment, lane=lane,
                                 grace=4.0))
        if draw(st.booleans()):
            events.append(FaultEvent(time=fail_at + 20.0,
                                     kind=FaultKind.SEGMENT,
                                     action="repair", segment=segment,
                                     lane=lane))
    return FaultPlan(events=events)


def build_ring(seed: int, plan: FaultPlan | None, *,
               incremental: bool, check_level: str,
               synchronous: bool = True, messages: int = 10,
               header_timeout: Optional[float] = 128.0,
               watchdog: bool = False,
               **overrides: object) -> RMBRing:
    config = RMBConfig(nodes=NODES, lanes=LANES,
                       check_level=check_level, synchronous=synchronous,
                       retry=RetryPolicy(
                           jitter=0.25,
                           max_retries=8 if plan is not None else None,
                           header_timeout=header_timeout),
                       **overrides)
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan,
                   watchdog=watchdog, trace_kinds=None)
    ring.compaction.incremental = incremental
    ring.submit_all(
        Message(message_id=i, source=(i + seed) % NODES,
                destination=(i + seed + 2 + i % 3) % NODES,
                data_flits=2 + (i % 5))
        for i in range(messages)
    )
    return ring


def observables(ring: RMBRing) -> tuple:
    assert ring.trace.entries, "two empty traces would compare equal"
    return (
        ring.sim.now,
        json.dumps(ring.stats().summary(), sort_keys=True),
        ring.trace.entries,
        ring.grid.state_signature(),
        {mid: (record.injected_at, record.established_at,
               record.delivered_at, record.completed_at, record.retries)
         for mid, record in ring.routing.records.items()},
        ring.compaction.stats.moves,
        ring.compaction.stats.evacuations,
    )


def run_and_observe(seed: int, plan: FaultPlan | None, *,
                    incremental: bool, check_level: str,
                    synchronous: bool = True,
                    snapshot_at: float) -> tuple[tuple, dict]:
    """Run to the horizon, snapshotting mid-way; return observables and
    the snapshot manifest (with the restored copy finishing the run to
    prove the snapshot captured an equivalent state)."""
    ring = build_ring(seed, plan, incremental=incremental,
                      check_level=check_level, synchronous=synchronous)
    ring.sim.run(until=snapshot_at)
    snapshot = save_snapshot_bytes(ring)
    restored, manifest = load_snapshot_bytes(snapshot)
    restored.sim.run(until=HORIZON)
    restored.drain()
    manifest.pop("meta", None)
    return observables(restored), manifest


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_compaction_matches_reference(seed, plan, snapshot_at):
    """Optimised candidate search == exhaustive scan, bit for bit."""
    fast, fast_manifest = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        snapshot_at=float(snapshot_at))
    slow, slow_manifest = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == slow
    assert fast_manifest == slow_manifest


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_inc_pass_matches_reference(seed, plan, snapshot_at):
    """Asynchronous mode: the per-INC hot-column gate changes nothing."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    slow, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    assert fast == slow


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       level=st.sampled_from(["sampled", "off"]),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_check_level_is_read_only(seed, plan, level, snapshot_at):
    """The invariant monitor frequency never changes simulation results."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level=level,
        snapshot_at=float(snapshot_at))
    reference, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == reference


def check_pass_maps(engine: RoutingEngine) -> None:
    """The pass maps and ready nodes the engine keeps up to date, and
    the grid's occupied count, faulty index and lane bits, are what a
    rebuild from primary state gives (DESIGN.md §9 P8).  The header pass
    visits its buses in order, so that order must agree too."""
    twin = rebuilt(engine)
    for name in ("_signalling", "_streaming", "_ready"):
        assert getattr(engine, name) == getattr(twin, name), name
    assert list(engine._extending.items()) == list(twin._extending.items())
    grid = engine.grid
    grid_twin = rebuilt(grid)
    for name in ("_occupied_count", "_faulty_index", "_faulty_count",
                 "_occupied_bits", "_faulty_bits"):
        assert getattr(grid, name) == getattr(grid_twin, name), name


def check_parked_headers(engine: RoutingEngine) -> int:
    """Re-run the full evaluation for every parked header whose recorded
    epochs still match; it must agree that the header stalls.  Check the
    pass maps, and that no parked header has outlived its deadline.
    Returns how many parked headers were checked."""
    check_pass_maps(engine)
    grid = engine.grid
    checked = 0
    for bus_id, (head, head_epoch, ahead, ahead_epoch, settled, due) in \
            engine._parked.items():
        bus = engine._extending[bus_id]
        assert head == bus.segment_index(len(bus.hops) - 1)
        assert ahead == bus.segment_index(len(bus.hops))
        assert settled <= engine._passes < due
        if (grid.epochs[head], grid.epochs[ahead]) != \
                (head_epoch, ahead_epoch):
            continue
        assert any(grid.health(ahead, lane) is PortHealth.OK
                   for lane in range(grid.lanes)), bus.describe()
        assert engine._pick_extension_lane(ahead, bus.hops[-1]) is None, \
            bus.describe()
        checked += 1
    return checked


PASSES = ("_advance_signals", "_advance_streams", "_advance_headers",
          "_admit")


@contextmanager
def checking_parked_headers() -> Iterator[list[int]]:
    """Run ``check_parked_headers`` before each of the four flit-tick
    passes; yields a one-element list counting the headers checked."""
    count = [0]

    def checking(advance):
        def checked(engine: RoutingEngine) -> None:
            count[0] += check_parked_headers(engine)
            advance(engine)
        return checked

    with ExitStack() as stack:
        for name in PASSES:
            stack.enter_context(mock.patch.object(
                RoutingEngine, name, checking(getattr(RoutingEngine, name))))
        yield count


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       synchronous=st.booleans(),
       extend_up=st.booleans(),
       compact_head=st.booleans())
def test_parked_headers_really_stall(seed, plan, synchronous, extend_up,
                                     compact_head):
    """A header is only ever parked on columns that leave it stuck."""
    with checking_parked_headers():
        ring = build_ring(seed, plan, incremental=True, check_level="off",
                          synchronous=synchronous, messages=32,
                          extend_up=extend_up,
                          compact_head_while_extending=compact_head)
        ring.sim.run(until=HORIZON)
        ring.drain()


def loaded_fabric() -> HierRMB:
    fabric = HierRMB(locals=4, nodes_per_local=4, lanes=3, seed=5,
                     config=RMBConfig(nodes=4, lanes=3, check_level="off"),
                     probe_period=16.0)
    replay_on_fabric(fabric, bernoulli_schedule(
        16, 120, 0.08, 4, RandomStream(5, name="parking")))
    return fabric


def test_parked_headers_really_stall_on_a_fabric():
    """The same check on every ring of a loaded HierRMB fabric."""
    with checking_parked_headers() as count:
        fabric = loaded_fabric()
        fabric.run(120)
        fabric.drain()
    assert count[0] > 0


@contextmanager
def stall_oracle() -> Iterator[Counter]:
    """Count stall ticks per message the long way: a header extending
    before a header pass whose hop count and fault-Nack count are
    unchanged after it has stalled for that pass (its header timeout
    included).  A header times out exactly on the pass that brings its
    run of consecutive stalls to the header timeout.  Yields the
    per-message counts."""
    stalls: Counter = Counter()
    runs: Counter = Counter()   # bus id -> consecutive stalls
    advance = RoutingEngine._advance_headers

    def counted(engine: RoutingEngine) -> None:
        before = [(bus, len(bus.hops), bus.record.fault_nacks)
                  for bus in engine.buses.values()
                  if bus.phase is BusPhase.EXTENDING]
        advance(engine)
        timeout = engine.config.retry.header_timeout
        for bus, hops, fault_nacks in before:
            if len(bus.hops) != hops or \
                    bus.record.fault_nacks != fault_nacks:
                runs[bus.bus_id] = 0
                continue
            stalls[bus.message.message_id] += 1
            runs[bus.bus_id] += 1
            due = timeout is not None and runs[bus.bus_id] >= timeout
            assert (bus.phase is not BusPhase.EXTENDING) == due, \
                bus.describe()

    with mock.patch.object(RoutingEngine, "_advance_headers", counted):
        yield stalls


def stall_ticks(ring: RMBRing) -> dict[int, int]:
    return {mid: record.head_stall_ticks
            for mid, record in ring.routing.records.items()
            if record.head_stall_ticks}


#: Header timeouts: none, the default, and three that are no whole number
#: of flit ticks, so the header times out on the stall that reaches the
#: next whole tick.
TIMEOUTS = [None, 128.0, 2.5, 0.7, 2.1]


@contextmanager
def brief_watchdog() -> Iterator[None]:
    """Shrink the watchdog's probe period and stall window from 50 and
    400 ticks to 4 and 8, so it tears parked headers down within the
    90-tick horizon.  Both are read when the watchdog is built and when
    it probes, so the patch must cover the build."""
    with mock.patch.multiple(watchdog_module, PROBE_PERIOD=4.0,
                             STALL_WINDOW=8.0):
        yield


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       synchronous=st.booleans(),
       header_timeout=st.sampled_from(TIMEOUTS),
       watchdog=st.booleans(),
       reads=st.lists(st.tuples(st.integers(min_value=1, max_value=89),
                                st.sampled_from(["stats", "snapshot"])),
                      max_size=4))
def test_parked_stall_ticks_settle_exactly(seed, plan, synchronous,
                                          header_timeout, watchdog, reads):
    """Parked headers settle their stall ticks late (DESIGN.md P5): read
    at random chunk boundaries, every record's settled stall ticks equal
    the oracle's, and neither the reads nor a snapshot restored mid-run
    change the final records of the uninterrupted run.  A watchdog, when
    drawn, probes every 4 ticks and tears headers stalled for 8 down
    between passes (``brief_watchdog``)."""
    def build() -> RMBRing:
        return build_ring(seed, plan, incremental=True, check_level="off",
                          synchronous=synchronous, messages=32,
                          header_timeout=header_timeout, watchdog=watchdog)

    with brief_watchdog() if watchdog else nullcontext():
        with stall_oracle() as oracle:
            ring = build()
            for until, read in sorted(reads):
                ring.sim.run(until=float(until))
                if read == "snapshot":
                    ring, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
                ring.stats()
                assert stall_ticks(ring) == dict(+oracle)
            ring.sim.run(until=HORIZON)
            ring.drain()
            assert stall_ticks(ring) == dict(+oracle)
        reference = build()
        reference.sim.run(until=HORIZON)
        reference.drain()
    assert ring.routing.records == reference.routing.records
    assert observables(ring) == observables(reference)


def test_watchdog_teardown_settles_parked_stall_ticks():
    """A header walled off by a fully claimed column parks until the
    watchdog, at its own windows, tears it down: the teardown settles
    every stall tick the header skipped (DESIGN.md P5), and a read and a
    snapshot taken while it is parked change nothing."""
    def build() -> RMBRing:
        config = RMBConfig(nodes=NODES, lanes=LANES,
                           compaction_enabled=False, check_level="off",
                           retry=RetryPolicy(delay=8.0, jitter=0.0,
                                             header_timeout=None))
        ring = RMBRing(config, seed=1, watchdog=True, trace_kinds=None)
        for lane in range(LANES):
            ring.grid.claim(2, lane, 900 + lane)
        ring.submit(Message(message_id=0, source=0, destination=4,
                            data_flits=4))
        return ring

    def release(ring: RMBRing) -> None:
        for lane in range(LANES):
            ring.grid.release(2, lane, 900 + lane)

    # The first probe sees the wedged header; the probe a stall window
    # later tears it down, long before its retry comes due.
    torn_down = watchdog_module.PROBE_PERIOD + watchdog_module.STALL_WINDOW
    with stall_oracle() as oracle:
        ring = build()
        ring.sim.run(until=100.0)
        ring, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
        ring.stats()
        read = stall_ticks(ring)
        assert read == dict(+oracle)
        ring.sim.run(until=torn_down + 1.0)
        assert ring.routing.forced_teardowns == 1
        assert not ring.buses
        # The header stalled parked since the read; only the teardown
        # settled those ticks.
        assert stall_ticks(ring) == dict(+oracle)
        assert oracle[0] > read[0]
        release(ring)
        ring.drain()
        assert stall_ticks(ring) == dict(+oracle)
    reference = build()
    reference.sim.run(until=torn_down + 1.0)
    release(reference)
    reference.drain()
    assert ring.routing.records[0].finished
    assert ring.routing.records == reference.routing.records
    assert observables(ring) == observables(reference)


def test_fabric_readers_settle_parked_stall_ticks():
    """Journey-level and per-ring fabric statistics read mid-run count
    every stall tick the oracle saw, and reading them changes nothing."""
    def journey_stalls(fabric: HierRMB) -> int:
        return fabric.stats().stalls.total

    def leg_stalls(fabric: HierRMB) -> int:
        return sum(stats.stalls.total
                   for stats in fabric.stats_by_ring().values())

    with stall_oracle() as oracle:
        fabric = loaded_fabric()
        for step in range(15):
            fabric.run(10)
            total = sum(oracle.values())
            readers = [journey_stalls, leg_stalls]
            if step % 4 >= 2:   # each reader goes first on some reads
                readers.reverse()
            for read in readers:
                assert read(fabric) == total
        fabric.drain()
    reference = loaded_fabric()
    reference.run(120)
    reference.drain()
    assert {name: ring.routing.records
            for name, ring in fabric.rings.items()} == \
        {name: ring.routing.records
         for name, ring in reference.rings.items()}


#: Figure 7's move classes: where the bus enters and leaves relative to
#: the moving lane, ``None`` at the source or the head.
MOVE_CLASSES = {(up, down) for up in (None, -1, 0) for down in (None, -1, 0)}


@contextmanager
def checking_compaction_commits() -> Iterator[Counter]:
    """Before every commit of ``global_pass``'s D3 loop, require that D1
    (``move_legal``) holds on the partly committed state and that the
    move's class is one of Figure 7's nine.  Evacuation commits run
    before the candidate build and are counted under ``"evacuation"``
    unchecked.  Yields the commits counted per class."""
    commits: Counter = Counter()
    evacuating = [False]
    evacuate = CompactionEngine._evacuate_all
    commit = CompactionEngine._commit

    def evacuating_all(engine: CompactionEngine, cycle: int) -> int:
        evacuating[0] = True
        try:
            return evacuate(engine, cycle)
        finally:
            evacuating[0] = False

    def checked(engine: CompactionEngine, bus, hop: int, segment: int,
                lane: int, cycle: int) -> None:
        if evacuating[0]:
            commits["evacuation"] += 1
        else:
            assert engine.move_legal(segment, lane), bus.describe()
            hops = bus.hops
            up = hops[hop - 1] - lane if hop else None
            down = hops[hop + 1] - lane if hop < len(hops) - 1 else None
            assert (up, down) in MOVE_CLASSES, bus.describe()
            commits[(up, down)] += 1
        commit(engine, bus, hop, segment, lane, cycle)

    with mock.patch.object(CompactionEngine, "_evacuate_all",
                           evacuating_all), \
            mock.patch.object(CompactionEngine, "_commit", checked):
        yield commits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       incremental=st.booleans(),
       compact_head=st.booleans())
def test_synchronous_commits_need_no_d1_recheck(seed, plan, incremental,
                                                compact_head):
    """Every candidate that survives D3 is still legal when committed."""
    with checking_compaction_commits() as commits:
        ring = build_ring(seed, plan, incremental=incremental,
                          check_level="off", messages=32,
                          compact_head_while_extending=compact_head)
        ring.sim.run(until=HORIZON)
        ring.drain()
    checked = sum(count for move_class, count in commits.items()
                  if move_class != "evacuation")
    assert checked > 0
    assert checked + commits["evacuation"] == ring.compaction.stats.moves


@contextmanager
def member_clocks() -> Iterator[None]:
    """Build each fabric member on a ring clock of its own, on the
    fabric's simulator, so every member's cycle and flit events sit where
    they did before members shared one clock; and run every flit tick in
    full, as if admission always held a request."""
    def member(config: RMBConfig, *, clock: RingClock, name: str,
               **kwargs: object) -> RMBRing:
        return RMBRing(config, clock=RingClock(clock.sim, name), name=name,
                       **kwargs)

    with mock.patch("repro.hier.fabric.RMBRing", member), \
            mock.patch.object(AdmissionController, "holding", True):
        yield


@dataclass(frozen=True)
class RelayRouteMap(RouteMap):
    """Rings ``a`` and ``b`` of ``nodes`` each, bridged at their node 0:
    station 0 is the bridge, stations ``1..nodes-1`` are ``a``'s and the
    next ``nodes - 1`` are ``b``'s."""

    nodes: int

    def locate(self, station: int) -> Tuple[str, int]:
        if station < self.nodes:
            return "a", station
        return "b", station - self.nodes + 1

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        ring_s, s = self.locate(message.source)
        ring_d, d = self.locate(message.destination)
        if ring_s == ring_d:
            return (Hop(ring_s, s, d),)
        if s == 0:
            return (Hop(ring_d, 0, d),)
        if d == 0:
            return (Hop(ring_s, s, 0),)
        return (Hop(ring_s, s, 0), Hop(ring_d, 0, d))


def relay_fabric(seed: int, periods: Tuple[float, float],
                 asynchronous: bool, rate: float) -> RingFabric:
    nodes = 6
    configs = [RMBConfig(nodes=nodes, lanes=3, cycle_period=period,
                         retry=RetryPolicy(jitter=0.25))
               for period in periods]
    if asynchronous:
        configs[1] = configs[1].with_overrides(synchronous=False)
    fabric = RingFabric(
        RelayRouteMap(nodes),
        [("a", configs[0], seed), ("b", configs[1], seed + 1)],
        name="relay", probe_period=16.0)
    replay_on_fabric(fabric, bernoulli_schedule(
        2 * nodes - 1, 60, rate, 3, RandomStream(seed, name="relay")))
    return fabric


def fabric_observables(fabric: RingFabric) -> tuple:
    fabric.run(60)
    fabric.drain()
    return (
        fabric.sim.now,
        json.dumps(fabric.stats().summary(), sort_keys=True),
        {name: json.dumps(stats.summary(), sort_keys=True)
         for name, stats in fabric.stats_by_ring().items()},
        fabric.journeys,
        {name: (ring.routing.records, ring.compaction.stats,
                ring.routing._passes, ring.cycle_count())
         for name, ring in fabric.rings.items()},
    )


def assert_clock_changes_nothing(build) -> None:
    shared = build()
    with member_clocks():
        reference = build()
    assert len(shared.clock._flits) == len(shared.rings)
    assert all(ring.clock is not shared.clock
               for ring in reference.rings.values())
    observed = fabric_observables(shared)
    assert sum(len(journey.trail) > 1
               for journey in shared.journeys.values()) > 0
    assert observed == fabric_observables(reference)
    assert shared.sim.events_executed < reference.sim.events_executed


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       shape=st.sampled_from([(4, 4), (4, 6), (6, 4)]),
       lanes=st.integers(min_value=2, max_value=4),
       rate=st.sampled_from([0.02, 0.05, 0.1]))
def test_shared_clock_matches_member_clocks_on_hier(seed, shape, lanes,
                                                    rate):
    """One clock for every member == a clock per member, bit for bit."""
    locals_, nodes = shape

    def build() -> HierRMB:
        fabric = HierRMB(locals=locals_, nodes_per_local=nodes, lanes=lanes,
                         seed=seed, probe_period=16.0)
        replay_on_fabric(fabric, bernoulli_schedule(
            locals_ * nodes, 60, rate, 3, RandomStream(seed, name="hier")))
        return fabric

    assert_clock_changes_nothing(build)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       periods=st.sampled_from([(2.0, 3.0), (1.0, 4.0), (3.0, 2.0)]),
       asynchronous=st.booleans(),
       rate=st.sampled_from([0.03, 0.08]))
def test_shared_clock_matches_member_clocks_on_two_rings(seed, periods,
                                                         asynchronous, rate):
    """Members of different cycle periods, or one asynchronous member,
    keep their own cycle events and share the flit tick."""
    assert_clock_changes_nothing(
        lambda: relay_fabric(seed, periods, asynchronous, rate))
