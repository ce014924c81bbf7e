"""Tick-synchronous vectorized replay of the RMB protocol tables.

:class:`BatchRing` is a drop-in twin of :class:`repro.core.network.
RMBRing` for the *synchronous, open-loop* feature subset (see
:data:`BatchRing.__init__` for the gates): it replays a known arrival
schedule without the event heap, advancing the whole network one flit
tick at a time with masked numpy operations over the struct-of-arrays
state in :mod:`repro.batch.state`.  Every lifecycle transition is taken
through the compiled transition matrix (:mod:`repro.batch.compile`), so
an undeclared ``(state, event)`` pair raises exactly like the event
backend's interpreter.

Equivalence contract (enforced by ``tests/batch/``): for any supported
scenario and seed, the batch ring produces *bit-identical* message
records, stats summaries, probe time series and final grid signatures
to an event-backend run of the same schedule.  The derivation of the
event orderings this relies on (arrival/retry gates, probe-vs-cycle
inertness, the idle fast-forward) is written up in DESIGN.md §14.

The wall-clock wins over the heap:

* no per-event heap churn — periodics become modular arithmetic on the
  tick counter;
* per-phase *row groups* (ack walks, release walks, streams, drains,
  travelling headers) are maintained incrementally at lifecycle
  transitions, so each tick advances every group in O(1) numpy calls
  instead of O(buses) Python iterations or per-tick mask rebuilds;
* faults are static for a whole run, so column usability and each
  node's insertion lane are precomputed once instead of re-derived per
  header per tick;
* an idle fast-forward skips straight from "nothing live, nothing
  queued" to the next arrival/retry gate, turning the exponential-
  backoff drain tail from O(ticks) into O(events).

Ordering note: the event backend iterates its ``buses`` dict in
insertion order, which is ascending ``bus_id`` — so wherever cross-row
effects do not commute (retry-RNG draws and heap-seq assignment at walk
boundaries, lane contention between travelling headers) the groups are
processed in ascending ``bus_id`` order.  The header group is kept
bus_id-sorted by construction (rows are appended at injection, and a
retry re-injects with a fresh, larger bus_id); walk boundaries are
sorted explicitly before firing.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.batch.compile import (
    EVENT_CODE,
    EVENTS,
    STATE_CODE,
    STATES,
    TRAP,
    CompiledLifecycle,
    compile_lifecycle,
)
from repro.batch.state import FREE, H_OK, BatchState
from repro.core.compaction import CompactionStats
from repro.core.config import RMBConfig
from repro.core.flits import Message, MessageRecord
from repro.core.routing import format_census
from repro.core.stats import RunStats
from repro.core.status import PortHealth, move_condition
from repro.errors import ProtocolError, RoutingError, WorkloadError
from repro.protocol.lifecycle import (
    TERMINAL_STATES,
    LifecycleEvent,
    LifecycleState,
    RefusalKind,
    note_refusal,
    retry_attempts,
    retry_decision,
)
from repro.sim.monitor import TimeSeries
from repro.sim.rng import SeedSequence

#: ``(time, Message)`` pairs, as produced by :mod:`repro.traffic`.
ArrivalSchedule = Iterable[Tuple[float, Message]]

# Lifecycle state/event codes used by the hot loop, resolved once.
S_NEW = STATE_CODE[LifecycleState.NEW]
S_QUEUED = STATE_CODE[LifecycleState.QUEUED]
S_INJECTED = STATE_CODE[LifecycleState.INJECTED]
S_EXTENDING = STATE_CODE[LifecycleState.EXTENDING]
S_ESTABLISHED = STATE_CODE[LifecycleState.ESTABLISHED]
S_STREAMING = STATE_CODE[LifecycleState.STREAMING]
S_DRAINING = STATE_CODE[LifecycleState.DRAINING]
S_RELEASING = STATE_CODE[LifecycleState.RELEASING]
S_NACKED = STATE_CODE[LifecycleState.NACKED]

E_ADMIT = EVENT_CODE[LifecycleEvent.ADMIT]
E_INJECT = EVENT_CODE[LifecycleEvent.INJECT]
E_EXTEND = EVENT_CODE[LifecycleEvent.EXTEND]
E_ACCEPT = EVENT_CODE[LifecycleEvent.ACCEPT]
E_REFUSE = EVENT_CODE[LifecycleEvent.REFUSE]
E_HACK_AT_SOURCE = EVENT_CODE[LifecycleEvent.HACK_AT_SOURCE]
E_FINAL_FLIT = EVENT_CODE[LifecycleEvent.FINAL_FLIT]
E_DELIVER = EVENT_CODE[LifecycleEvent.DELIVER]
E_RELEASE_DONE = EVENT_CODE[LifecycleEvent.RELEASE_DONE]
E_RETRY_ARMED = EVENT_CODE[LifecycleEvent.RETRY_ARMED]
E_RETRY_TIMER = EVENT_CODE[LifecycleEvent.RETRY_TIMER]
E_ABANDON = EVENT_CODE[LifecycleEvent.ABANDON]
E_FAULT_NACK = EVENT_CODE[LifecycleEvent.FAULT_NACK]
E_HEADER_TIMEOUT = EVENT_CODE[LifecycleEvent.HEADER_TIMEOUT]

TERMINAL_CODE_SET = frozenset(STATE_CODE[s] for s in TERMINAL_STATES)

#: Group size below which the per-phase passes run their exact scalar
#: loops instead of building index arrays — the event kernel is itself
#: an ordered scalar loop, so the scalar paths are bit-exact by
#: construction, and at light load (a handful of live buses) they beat
#: numpy's per-call overhead by an order of magnitude.
_SCALAR_ROWS = 6


class BatchUnsupported(ProtocolError):
    """The requested configuration needs the event backend."""


class BatchRing:
    """Vectorized synchronous RMB ring over a fixed arrival schedule.

    Mirrors the :class:`~repro.core.network.RMBRing` driving surface
    (``run`` / ``drain`` / ``stats`` / ``cycle_count`` / grid
    signature) for the supported subset; construction raises
    :class:`BatchUnsupported` outside it.
    """

    def __init__(
        self,
        config: RMBConfig,
        seed: int = 0,
        probe_period: Optional[float] = None,
        name: str = "rmb",
    ) -> None:
        # --- feature gates: what the batch backend models ---------------
        if not config.synchronous:
            raise BatchUnsupported(
                "batch backend models synchronous rings only "
                "(config.synchronous=False needs the event backend)"
            )
        if float(config.flit_period) != 1.0:
            raise BatchUnsupported(
                f"batch backend requires flit_period == 1.0 "
                f"(got {config.flit_period})"
            )
        cycle_period = float(config.cycle_period)
        if cycle_period < 1.0 or cycle_period != int(cycle_period):
            raise BatchUnsupported(
                f"batch backend requires an integer cycle_period >= 1 "
                f"(got {config.cycle_period})"
            )
        if config.admission_limit is not None:
            raise BatchUnsupported(
                "admission control (admission_limit) needs the event backend"
            )
        if config.compact_head_while_extending:
            raise BatchUnsupported(
                "compacting a travelling header's head hop "
                "(compact_head_while_extending=True, D9 waived) needs the "
                "event backend"
            )
        if probe_period is not None:
            period = float(probe_period)
            if period < 1.0 or period != int(period):
                raise BatchUnsupported(
                    f"batch backend requires an integer probe_period >= 1 "
                    f"(got {probe_period})"
                )
        self.config = config
        self.name = name
        self._table: CompiledLifecycle = compile_lifecycle()
        #: The transition matrix again as nested Python lists — the
        #: scalar paths fire transitions far more often than the vector
        #: ones, and list indexing beats ndarray scalar indexing 5x.
        self._trans_py: List[List[int]] = self._table.transition.tolist()
        self._st = BatchState(config.nodes, config.lanes, S_NEW)
        self._nodes = config.nodes
        self._lanes = config.lanes
        self._timeout = config.retry.header_timeout
        self.records: Dict[int, MessageRecord] = {}
        self._records_by_row: List[Optional[MessageRecord]] = []
        self._row_of: Dict[int, int] = {}
        #: Live buses as an insertion-ordered ``{row: None}`` view — the
        #: dict mirrors the event backend's ``buses`` dict ordering,
        #: which fixes the retry-jitter RNG draw order.
        self._live: Dict[int, None] = {}
        # Per-phase row groups, maintained at lifecycle transitions.
        # The groups only need order at their boundaries, except the
        # extenders, which claim cells in bus-id order (the kernel's
        # dict order) — the header pass sorts its attempt set.
        self._g_ack: List[int] = []      # ESTABLISHED: Hack walking home
        self._g_walk: List[int] = []     # NACKED/RELEASING: release walk
        self._g_stream: List[int] = []   # STREAMING: data flits out
        self._g_drain: List[int] = []    # DRAINING: FF chasing last DF
        # EXTENDING headers, split by whether they can possibly move: an
        # *active* header moved last pass (or was just injected) and is
        # re-attempted; a *stalled* one had no usable candidate lane and
        # — since claims only remove usability — stays immobile until
        # its next column gains a cell (``col_epoch`` changes).  Stalled
        # rows cost one vectorized stall-tick per pass.
        self._ext_active: List[int] = []
        self._ext_stalled: List[int] = []
        self._ext_stalled_seg: List[int] = []
        self._ext_stalled_epoch: List[int] = []
        self._stalled_arr: np.ndarray = _EMPTY
        self._stalled_seg: np.ndarray = _EMPTY
        self._stalled_epoch: np.ndarray = _EMPTY
        self._stalled_dirty = True
        #: Upper bound on the stall count of any stalled row — the
        #: vectorized timeout check only runs once this bound crosses
        #: the header timeout.
        self._stalled_max = 0
        # Cached index arrays for the other hot groups, rebuilt only
        # when the membership changes.
        self._walk_arr: np.ndarray = _EMPTY
        self._walk_dirty = True
        self._queued_arr: np.ndarray = _EMPTY
        self._queued_dirty = True
        #: Per-parity grid epoch at which compaction found nothing to
        #: move — an unchanged grid yields the same (empty) answer.
        self._gp_quiet = [-1, -1]
        #: Static D2 parity masks over the grid, one per cycle parity:
        #: ``_par_mask[p][seg, lane]`` == ``(seg + lane + p) % 2 == 0``.
        seg_col = np.arange(self._nodes)[:, None]
        lane_row = np.arange(self._lanes)[None, :]
        self._par_mask = [((seg_col + lane_row + p) & 1) == 0
                          for p in (0, 1)]
        #: Admission skip state: an admit pass that injected nothing can
        #: only start succeeding after a cell is freed, a tx port is
        #: released, or a new row is enqueued (claims only block more).
        self._admit_quiet: Optional[Tuple[int, int, int]] = None
        self._tx_release_count = 0
        self._enqueue_count = 0
        self._queues: List[Deque[int]] = [deque()
                                          for _ in range(config.nodes)]
        self._queued_nodes: Set[int] = set()
        self._queued_count = 0
        self._rng = SeedSequence(seed).stream("retry")
        # Pending enqueue events: the pre-sorted arrival list plus a heap
        # of armed retry timers, both keyed (time, seq) like the kernel's
        # event heap (retry seqs start above every arrival seq).
        self._arrivals: List[Tuple[float, int, int]] = []
        self._arrival_ptr = 0
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._event_seq = 0
        self._awaiting_retry = 0
        self._awaiting_retry_by_node = [0] * config.nodes
        self._node_retry_totals = [0] * config.nodes
        # Clock: ``_now`` is the kernel-visible time, ``_next_tick`` the
        # next unprocessed integer flit tick.
        self._now = 0.0
        self._next_tick = 1
        self._cycle_period = int(cycle_period)
        self._probe_period = None if probe_period is None \
            else int(float(probe_period))
        self._next_bus_id = 0
        # Aggregate counters, one-for-one with RoutingEngine's.
        self.injected = 0
        self.established = 0
        self.delivered = 0
        self.completed = 0
        self.nacked = 0
        self.timed_out = 0
        self.abandoned = 0
        self.fault_nacked = 0
        self.budget_abandoned = 0
        self.flits_delivered = 0
        self.arrivals_fired = 0
        self.retry_fires = 0
        self._cycle = 0
        self.compaction_stats = CompactionStats()
        self.utilization = TimeSeries(f"{name}.utilization")
        self.live_buses = TimeSeries(f"{name}.live_buses")
        self._refresh_static()

    def _refresh_static(self) -> None:
        """Rebuild the static-fault lookups (health never changes once
        the run starts, so these are per-run constants)."""
        st = self._st
        self._health_ok = st.health == H_OK          # (nodes, lanes) bool
        reach = self.config.header_reach
        #: Per column and entry lane: can a header on that lane still
        #: reach a healthy lane of the column (F3)?
        self._reach_ok = [
            [any(column[lane] for lane in reach(entry))
             for entry in range(st.lanes)]
            for column in self._health_ok.tolist()
        ]
        top = self.config.top_lane
        insert = []
        for node in range(st.nodes):
            lane = -1
            for candidate in range(top, -1, -1):
                if self._health_ok[node, candidate]:
                    lane = candidate
                    break
            insert.append(lane)
        #: Highest OK lane per insertion column (-1 = column dead).
        self._insert_lane = insert
        self._any_dead_reach = not all(map(all, self._reach_ok))
        self._any_fault = st.faulty_count > 0

    # ------------------------------------------------------------------
    # Workload / topology setup
    # ------------------------------------------------------------------
    def load(self, schedule: ArrivalSchedule) -> None:
        """Register every schedule entry for replay (before running)."""
        base = len(self._arrivals)
        for index, (time, message) in enumerate(schedule):
            if time < self._now:
                raise WorkloadError(
                    f"schedule entry at t={time} is in the ring's past "
                    f"({self._now})"
                )
            if message.extra_destinations:
                raise BatchUnsupported(
                    f"message {message.message_id}: multicast taps need "
                    f"the event backend"
                )
            nodes = self.config.nodes
            if not (0 <= message.source < nodes
                    and 0 <= message.destination < nodes):
                raise RoutingError(
                    f"message {message.message_id}: endpoints "
                    f"({message.source}, {message.destination}) outside "
                    f"ring of {nodes} nodes"
                )
            row = self._st.add_message(message, S_NEW)
            self._records_by_row.append(None)
            self._arrivals.append((float(time), base + index, row))
        self._arrivals.sort(key=lambda entry: (entry[0], entry[1]))
        self._event_seq = len(self._arrivals)

    def set_health(self, segment: int, lane: int,
                   health: PortHealth) -> None:
        """Static fault topology: mark a segment before the run starts."""
        if self._now != 0.0 or self._live:
            raise BatchUnsupported(
                "batch backend supports static faults only: set_health "
                "must be called before the run starts"
            )
        self._st.set_health(segment, lane, health)
        self._refresh_static()

    # ------------------------------------------------------------------
    # Driving surface (RMBRing twins)
    # ------------------------------------------------------------------
    def run(self, ticks: float) -> None:
        """Advance the simulation by ``ticks``."""
        self._run_until(self._now + float(ticks))

    def drain(self, max_ticks: float = 1_000_000.0) -> float:
        """Run until every submitted message reaches a terminal state."""
        start = self._now
        chunk = max(self.config.cycle_period, self.config.flit_period) * 16
        while self.pending() > 0:
            if self._now - start > max_ticks:
                raise ProtocolError(
                    f"ring failed to drain within {max_ticks} ticks; "
                    f"{self.pending()} requests outstanding "
                    f"({format_census(self.lifecycle_census())})"
                )
            self._run_until((self._now // chunk + 1) * chunk)
        return self._now - start

    @property
    def now(self) -> float:
        return self._now

    def pending(self) -> int:
        """Outstanding work, mirroring ``RoutingEngine.pending``."""
        return self._queued_count + len(self._live) + self._awaiting_retry

    def lifecycle_census(self) -> Dict[str, int]:
        """Pending messages per lifecycle state, in declaration order."""
        counts: Dict[int, int] = {}
        for message_id in self.records:
            code = int(self._st.state[self._row_of[message_id]])
            if code not in TERMINAL_CODE_SET:
                counts[code] = counts.get(code, 0) + 1
        return {STATES[code].value: counts[code]
                for code in sorted(counts)}

    def stats(self) -> RunStats:
        """Aggregate statistics, same shape as ``RMBRing.stats``."""
        # Stall ticks accumulate per epoch in ``st.stall`` and only
        # flush to the records at claim/NACK boundaries; fold the
        # in-flight epochs in for the snapshot, then unwind them.
        st = self._st
        pending: List[Tuple[MessageRecord, int]] = []
        for row in self._ext_active + self._ext_stalled:
            extra = int(st.stall[row])
            if extra:
                record = self._records_by_row[row]
                assert record is not None
                record.head_stall_ticks += extra
                pending.append((record, extra))
        result = RunStats.from_records(
            self.records.values(),
            duration=self._now,
            utilization=self.utilization,
            live_buses=self.live_buses,
            throughput=None,
            incidents=None,
            admission=None,
            forced_teardowns=0,
        )
        for record, extra in pending:
            record.head_stall_ticks -= extra
        return result

    def cycle_count(self) -> int:
        """Current (max) compaction cycle index."""
        return self._cycle

    def grid_signature(self) -> tuple:
        """Bit-identical twin of ``ring.grid.state_signature()``."""
        return self._st.grid_signature()

    def live_bus_count(self) -> int:
        return len(self._live)

    def equivalent_events(self, check_level: str = "sampled") -> int:
        """Heap events an event-backend twin executes to reach ``now``.

        Periodic counts fall out of the clock (``every`` fires first at
        one period, then every period: ``floor(now / period)`` firings);
        arrival and retry-timer events are counted as they replay.  Used
        as the work numerator for backend-comparable events/s rates.
        """
        now = self._now
        count = int(now // self.config.flit_period)
        count += int(now // self.config.cycle_period)
        if self._probe_period is not None:
            count += int(now // self._probe_period)
        if check_level == "sampled":
            count += int(now // (self.config.cycle_period * 16))
        elif check_level == "full":
            count += int(now // self.config.cycle_period)
        count += self.arrivals_fired + self.retry_fires
        return count

    # ------------------------------------------------------------------
    # Lifecycle firing through the compiled table
    # ------------------------------------------------------------------
    def _fire(self, row: int, event: int) -> None:
        """Take one transition via the matrix; trap = conformance bug."""
        state = self._st.state.item(row)
        target = self._trans_py[state][event]
        if target == TRAP:
            message = self._st.messages[row]
            raise ProtocolError(
                f"msg{message.message_id}: undeclared lifecycle transition "
                f"({STATES[state].value}, {EVENTS[event].value})"
            )
        self._st.state[row] = target

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run_until(self, until: float) -> None:
        limit = int(math.floor(until))
        tick = self._next_tick
        probe_period = self._probe_period
        cycle_period = self._cycle_period
        while tick <= limit:
            if not self._live and self._queued_count == 0:
                gate = self._next_gate()
                if gate is None or gate > limit:
                    self._bulk_idle(tick, limit)
                    tick = limit + 1
                    break
                if gate > tick:
                    self._bulk_idle(tick, gate - 1)
                    tick = gate
            elif (self._queued_count == 0 and not self._ext_active
                    and not self._ext_stalled and not self._g_walk
                    and (not self.config.compaction_enabled
                         or self._gp_quiet[0] == self._gp_quiet[1]
                         == self._st.grid_epoch)):
                # Only passive rows live (Hacks walking home, data
                # streaming, FFs draining): nothing touches the grid,
                # compaction is verified quiet on both parities, and
                # admission has nothing to do — bulk-advance to the
                # next boundary/event and process that tick normally.
                skip = self._passive_skip(tick, limit)
                if skip > 0:
                    self._bulk_passive(tick, skip)
                    tick += skip
                    continue
            if self._arrival_ptr < len(self._arrivals) or self._retry_heap:
                self._pop_events(tick)
            if (probe_period is not None and probe_period != 1
                    and tick % probe_period == 0):
                self._sample_probes(float(tick))
            if tick % cycle_period == 0:
                self._global_pass(self._cycle)
                self._cycle += 1
            self._flit_tick(float(tick))
            if probe_period == 1:
                self._sample_probes(float(tick))
            tick += 1
        self._next_tick = tick
        self._flush(until)
        self._now = float(until)
        # The arrays only ever see live rows, so an empty network must
        # mean an empty grid (the fast-forward relies on this).
        assert self._live or self._st.occupied_count == 0

    # -- event delivery ---------------------------------------------------

    @staticmethod
    def _arrival_gate(time: float) -> int:
        """First flit tick that can see a ``time`` arrival's enqueue.

        Kernel ordering: an arrival event carries a construction-time
        heap seq, so at any integer time >= 2 it sorts before that
        tick's (re-pushed) flit event; at t == 1 the flit periodic's own
        construction seq wins; t < 1 fires before the first tick.
        """
        gate = math.ceil(time)
        if gate < 1:
            return 1
        if gate == 1 and time >= 1.0:
            return 2
        return int(gate)

    def _next_gate(self) -> Optional[int]:
        gates = []
        if self._arrival_ptr < len(self._arrivals):
            gates.append(self._arrival_gate(
                self._arrivals[self._arrival_ptr][0]))
        if self._retry_heap:
            gates.append(int(math.ceil(self._retry_heap[0][0])))
        return min(gates) if gates else None

    def _pop_events(self, tick: int) -> None:
        """Fire every enqueue event due at or before this flit tick,
        in the kernel's (time, seq) heap order."""
        arrivals = self._arrivals
        heap = self._retry_heap
        while True:
            best_key: Optional[Tuple[float, int]] = None
            kind = ""
            if self._arrival_ptr < len(arrivals):
                time, seq, _ = arrivals[self._arrival_ptr]
                if self._arrival_gate(time) <= tick:
                    best_key = (time, seq)
                    kind = "arrival"
            if heap:
                time, seq, _ = heap[0]
                if math.ceil(time) <= tick and (
                        best_key is None or (time, seq) < best_key):
                    best_key = (time, seq)
                    kind = "retry"
            if best_key is None:
                return
            if kind == "arrival":
                row = arrivals[self._arrival_ptr][2]
                self._arrival_ptr += 1
                self._submit(row)
            else:
                _, _, row = heapq.heappop(heap)
                self._fire_retry_timer(row)

    def _flush(self, until: float) -> None:
        """Fire remaining events with time <= ``until`` (the kernel runs
        them even when they land between the last tick and ``until``)."""
        arrivals = self._arrivals
        heap = self._retry_heap
        while True:
            best_key: Optional[Tuple[float, int]] = None
            kind = ""
            if self._arrival_ptr < len(arrivals):
                time, seq, _ = arrivals[self._arrival_ptr]
                if time <= until:
                    best_key = (time, seq)
                    kind = "arrival"
            if heap:
                time, seq, _ = heap[0]
                if time <= until and (
                        best_key is None or (time, seq) < best_key):
                    best_key = (time, seq)
                    kind = "retry"
            if best_key is None:
                return
            if kind == "arrival":
                row = arrivals[self._arrival_ptr][2]
                self._arrival_ptr += 1
                self._submit(row)
            else:
                _, _, row = heapq.heappop(heap)
                self._fire_retry_timer(row)

    def _submit(self, row: int) -> None:
        """The arrival event: create the record and admit the message."""
        message = self._st.messages[row]
        if message.message_id in self.records:
            raise RoutingError(
                f"duplicate message id {message.message_id}"
            )
        self.arrivals_fired += 1
        record = MessageRecord(message=message)
        self.records[message.message_id] = record
        self._records_by_row[row] = record
        self._row_of[message.message_id] = row
        # Admission control is gated off, so ADMIT always holds.
        self._fire(row, E_ADMIT)
        self._enqueue(row)

    def _fire_retry_timer(self, row: int) -> None:
        self.retry_fires += 1
        message = self._st.messages[row]
        # DisarmRetryTimer + Enqueue.
        self._awaiting_retry -= 1
        self._awaiting_retry_by_node[message.source] -= 1
        self._fire(row, E_RETRY_TIMER)
        self._enqueue(row)

    def _enqueue(self, row: int) -> None:
        node = self._st.src.item(row)
        self._enqueue_count += 1
        self._queues[node].append(row)
        if node not in self._queued_nodes:
            self._queued_nodes.add(node)
            self._queued_dirty = True
        self._queued_count += 1

    # -- idle fast-forward ------------------------------------------------

    def _bulk_idle(self, first: int, last: int) -> None:
        """Advance empty-network ticks [first, last] in O(probes)."""
        if last < first:
            return
        cp = self._cycle_period
        cycles = last // cp - (first - 1) // cp
        if cycles:
            self._cycle += cycles
            if self.config.compaction_enabled:
                self.compaction_stats.cycles_run += cycles
        pp = self._probe_period
        if pp is not None:
            start = ((first + pp - 1) // pp) * pp
            times = self.utilization.times
            values = self.utilization.values
            live_times = self.live_buses.times
            live_values = self.live_buses.values
            for t in range(start, last + 1, pp):
                times.append(float(t))
                values.append(0.0)
                live_times.append(float(t))
                live_values.append(0.0)

    def _passive_skip(self, tick: int, limit: int) -> int:
        """How many ticks [tick, ...] are pure linear motion.

        Callable only when acks/streams/drains are the sole live groups
        and the compaction quiet invariant holds: each skipped tick then
        decrements every Hack position, increments every data counter
        and every FF position, and does nothing else.  The window stops
        one tick short of the nearest group boundary (that tick fires a
        lifecycle event and is processed normally) and before the next
        enqueue-event gate.
        """
        st = self._st
        skip = limit - tick + 1
        gate = self._next_gate()
        if gate is not None:
            if gate <= tick:
                return 0
            skip = min(skip, gate - tick)
        for row in self._g_ack:
            skip = min(skip, st.sigpos.item(row))
        for row in self._g_stream:
            skip = min(skip,
                       st.data_flits.item(row) - st.data_sent.item(row))
        for row in self._g_drain:
            skip = min(skip, st.span.item(row) - 1 - st.sigpos.item(row))
        return max(skip, 0)

    def _bulk_passive(self, first: int, count: int) -> None:
        """Advance ``count`` passive-only ticks [first, first+count-1].

        The grid is untouched in the window, so utilization and live-bus
        probes sample constants and quiet global passes only bump the
        cycle counter.
        """
        st = self._st
        last = first + count - 1
        for row in self._g_ack:
            st.sigpos[row] -= count
        for row in self._g_stream:
            st.data_sent[row] += count
        for row in self._g_drain:
            st.sigpos[row] += count
        cp = self._cycle_period
        cycles = last // cp - (first - 1) // cp
        if cycles:
            self._cycle += cycles
            if self.config.compaction_enabled:
                self.compaction_stats.cycles_run += cycles
        pp = self._probe_period
        if pp is not None:
            start = ((first + pp - 1) // pp) * pp
            if start <= last:
                total = self.config.nodes * self.config.lanes
                util = st.occupied_count / total
                live = float(len(self._live))
                times = self.utilization.times
                values = self.utilization.values
                live_times = self.live_buses.times
                live_values = self.live_buses.values
                for t in range(start, last + 1, pp):
                    times.append(float(t))
                    values.append(util)
                    live_times.append(float(t))
                    live_values.append(live)

    def _sample_probes(self, now: float) -> None:
        total = self.config.nodes * self.config.lanes
        self.utilization.record(now, self._st.occupied_count / total)
        self.live_buses.record(now, float(len(self._live)))

    # ------------------------------------------------------------------
    # One flit tick: signals -> streams -> headers -> admit
    # ------------------------------------------------------------------
    def _flit_tick(self, now: float) -> None:
        if self._g_ack or self._g_walk:
            self._advance_signals(now)
        if self._g_drain or self._g_stream:
            self._advance_streams(now)
        if self._ext_active or self._ext_stalled:
            self._advance_headers(now)
        if self._queued_count:
            self._admit(now)

    def _advance_signals(self, now: float) -> None:
        """Walk every returning Hack and every release signal one hop."""
        st = self._st
        acks = self._g_ack
        if len(acks) + len(self._g_walk) <= _SCALAR_ROWS:
            self._advance_signals_scalar(now)
            return
        done_ack: np.ndarray = _EMPTY
        if acks:
            arr = np.array(acks, dtype=np.intp)
            pos = st.sigpos[arr] - 1
            st.sigpos[arr] = pos
            done_ack = arr[pos < 0]
        walks = self._g_walk
        done_walk: np.ndarray = _EMPTY
        if walks:
            if self._walk_dirty:
                self._walk_arr = np.array(walks, dtype=np.intp)
                self._walk_dirty = False
            arr = self._walk_arr
            pos = st.sigpos[arr]
            seg = (st.src[arr] + pos) % self._nodes
            lanes = st.hops[arr, pos]
            # Release this hop's segment (disjoint cells: one per bus).
            st.occ_bus[seg, lanes] = FREE
            st.occ_row[seg, lanes] = FREE
            # Claimed cells are always healthy, so they free back usable.
            st.usable[seg, lanes + 1] = True
            st.col_epoch[seg] += 1
            st.grid_epoch += 1
            st.free_epoch += 1
            st.total_releases += arr.size
            st.occupied_count -= arr.size
            st.released_from[arr] = pos
            st.sigpos[arr] = pos - 1
            # The node just past the released segment drops its rx
            # reservation if this bus held one there (the destination).
            rx = st.rx_held[arr]
            if rx.any():
                held = rx & ((seg + 1) % self._nodes == st.dst[arr])
                if held.any():
                    dropped = arr[held]
                    np.subtract.at(st.rx_active, st.dst[dropped], 1)
                    st.rx_held[dropped] = False
            done_walk = arr[pos == 0]
        if done_ack.size:
            recs = self._records_by_row
            for row_ in done_ack:
                row = int(row_)
                # Hack reached the source: MarkEstablished.
                self._fire(row, E_HACK_AT_SOURCE)
                record = recs[row]
                record.established_at = now
                self.established += 1
                st.data_sent[row] = 0
                acks.remove(row)
                self._g_stream.append(row)
        if done_walk.size:
            # Finished walks fire in live (bus-creation == bus_id)
            # order: the retry RNG draws and heap seqs must follow the
            # event backend's dict iteration.
            if done_walk.size > 1:
                order = np.argsort(st.bus_id[done_walk], kind="stable")
                done_walk = done_walk[order]
            for row_ in done_walk:
                self._release_done(int(row_), now)

    def _advance_signals_scalar(self, now: float) -> None:
        """Small-group twin of :meth:`_advance_signals` (exact per-row
        loop in group order; all cross-row effects commute except the
        walk boundaries, which fire in bus order below)."""
        st = self._st
        recs = self._records_by_row
        acks = self._g_ack
        if acks:
            done_ack = []
            for row in acks:
                pos = st.sigpos.item(row) - 1
                st.sigpos[row] = pos
                if pos < 0:
                    done_ack.append(row)
            for row in done_ack:
                # Hack reached the source: MarkEstablished.
                self._fire(row, E_HACK_AT_SOURCE)
                record = recs[row]
                assert record is not None
                record.established_at = now
                self.established += 1
                st.data_sent[row] = 0
                acks.remove(row)
                self._g_stream.append(row)
        walks = self._g_walk
        if walks:
            done_walk = []
            nodes = self._nodes
            for row in walks:
                pos = st.sigpos.item(row)
                seg = (st.src.item(row) + pos) % nodes
                lane = st.hops.item(row, pos)
                st.occ_bus[seg, lane] = FREE
                st.occ_row[seg, lane] = FREE
                st.usable[seg, lane + 1] = True
                st.col_epoch[seg] += 1
                st.total_releases += 1
                st.occupied_count -= 1
                st.released_from[row] = pos
                st.sigpos[row] = pos - 1
                if st.rx_held[row]:
                    destination = st.dst.item(row)
                    if (seg + 1) % nodes == destination:
                        st.rx_active[destination] -= 1
                        st.rx_held[row] = False
                if pos == 0:
                    done_walk.append(row)
            st.grid_epoch += 1
            st.free_epoch += 1
            if len(done_walk) > 1:
                done_walk.sort(key=lambda r: st.bus_id.item(r))
            for row in done_walk:
                self._release_done(row, now)

    def _release_done(self, row: int, now: float) -> None:
        """RELEASE_DONE from a finished Fack/Nack walk."""
        st = self._st
        record = self._records_by_row[row]
        assert record is not None
        message = st.messages[row]
        state = int(st.state[row])
        self._fire(row, E_RELEASE_DONE)
        # ReleaseEndpoints (both arcs lead with it).
        st.tx_active[message.source] -= 1
        if st.rx_held[row]:
            st.rx_active[message.destination] -= 1
            st.rx_held[row] = False
        if state == S_RELEASING:
            # CompleteMessage + DropBus.
            record.completed_at = now
            self.completed += 1
        else:
            # MarkRefused (trace-only) + ClassifyRetry + DropBus.
            self._classify_retry(row, record, now)
        self._g_walk.remove(row)
        self._walk_dirty = True
        self._tx_release_count += 1
        del self._live[row]
        st.bus_id[row] = FREE

    def _classify_retry(self, row: int, record: MessageRecord,
                        now: float) -> None:
        message = self._st.messages[row]
        policy = self.config.retry
        decision = retry_decision(record, policy.max_retries)
        if decision is LifecycleEvent.RETRY_ARMED:
            budget = policy.node_budget
            if budget is not None and \
                    self._node_retry_totals[message.source] >= budget:
                self.budget_abandoned += 1
                decision = LifecycleEvent.ABANDON
        if decision is LifecycleEvent.RETRY_ARMED:
            self._fire(row, E_RETRY_ARMED)
            self._arm_retry_timer(row, record, now)
        else:
            self._fire(row, E_ABANDON)
            self.abandoned += 1
            record.abandoned = True

    def _arm_retry_timer(self, row: int, record: MessageRecord,
                         now: float) -> None:
        attempts = retry_attempts(record)
        record.retries += 1
        policy = self.config.retry
        delay = policy.delay * (
            policy.backoff ** max(0, attempts - record.backoff_floor - 1)
        )
        if policy.jitter > 0:
            delay += self._rng.uniform(0, policy.jitter * delay)
        source = self._st.messages[row].source
        self._awaiting_retry += 1
        self._awaiting_retry_by_node[source] += 1
        self._node_retry_totals[source] += 1
        heapq.heappush(self._retry_heap,
                       (now + delay, self._event_seq, row))
        self._event_seq += 1

    def _advance_streams(self, now: float) -> None:
        """Push data flits and walk the FF toward the destination.

        Rows already DRAINING at pass start advance their FF; rows that
        emit their FINAL_FLIT this tick start draining *next* tick —
        matching the kernel's one-action-per-bus loop.
        """
        st = self._st
        drains = self._g_drain
        streams = self._g_stream
        if len(drains) + len(streams) <= _SCALAR_ROWS:
            if drains:
                arrived_rows = []
                for row in drains:
                    pos = st.sigpos.item(row) + 1
                    st.sigpos[row] = pos
                    if pos >= st.span.item(row):
                        arrived_rows.append(row)
                for row in arrived_rows:
                    self._deliver(row, now)
            if streams:
                finals = []
                for row in streams:
                    sent = st.data_sent.item(row)
                    if sent < st.data_flits.item(row):
                        st.data_sent[row] = sent + 1
                    else:
                        finals.append(row)
                for row in finals:
                    # All data out: the FF chases the last DF (SendSignal
                    # FINAL -> signal starts at hop 0).
                    self._fire(row, E_FINAL_FLIT)
                    st.sigpos[row] = 0
                    streams.remove(row)
                    drains.append(row)
            return
        if drains:
            arr = np.array(drains, dtype=np.intp)
            pos = st.sigpos[arr] + 1
            st.sigpos[arr] = pos
            arrived = arr[pos >= st.span[arr]]
            for row_ in arrived:
                self._deliver(int(row_), now)
        if streams:
            arr = np.array(streams, dtype=np.intp)
            pending = st.data_sent[arr] < st.data_flits[arr]
            st.data_sent[arr[pending]] += 1
            if not pending.all():
                for row_ in arr[~pending]:
                    row = int(row_)
                    # All data out: the FF chases the last DF (SendSignal
                    # FINAL -> signal starts at hop 0).
                    self._fire(row, E_FINAL_FLIT)
                    st.sigpos[row] = 0
                    streams.remove(row)
                    self._g_drain.append(row)

    def _deliver(self, row: int, now: float) -> None:
        """MarkDelivered + SendSignal FACK: the Fack walks home,
        releasing as it goes."""
        st = self._st
        self._fire(row, E_DELIVER)
        message = st.messages[row]
        record = self._records_by_row[row]
        assert record is not None
        record.delivered_at = now
        self.delivered += 1
        self.flits_delivered += message.total_flits
        if st.rx_held[row]:
            st.rx_active[message.destination] -= 1
            st.rx_held[row] = False
        hops_len = st.hops_len.item(row)
        st.sigpos[row] = hops_len - 1
        st.released_from[row] = hops_len
        self._g_drain.remove(row)
        self._g_walk.append(row)
        self._walk_dirty = True

    def _advance_headers(self, now: float) -> None:
        """Extend every travelling header one segment.

        Claims made during a pass only *remove* usability, so a header
        with no usable candidate lane at pass start cannot move
        mid-pass — and, between passes, it can only become movable once
        its next column gains a cell (a release, a compaction move or a
        repair bumps that column's ``col_epoch``).  Stalled headers
        therefore cost one vectorized stall-tick per pass; only active
        headers (injected or moved last pass) and freshly woken ones
        run the exact scalar step, merged in bus-creation order — two
        headers racing for one lane resolve to the earlier bus, exactly
        like the event backend's dict iteration (the loser re-stalls).
        """
        st = self._st
        removed: List[int] = []
        attempts = self._ext_active
        if self._ext_stalled:
            if self._stalled_dirty:
                self._stalled_arr = np.array(self._ext_stalled,
                                             dtype=np.intp)
                self._stalled_seg = np.array(self._ext_stalled_seg,
                                             dtype=np.intp)
                self._stalled_epoch = np.array(self._ext_stalled_epoch,
                                               dtype=np.int64)
                self._stalled_dirty = False
            woken = st.col_epoch[self._stalled_seg] != self._stalled_epoch
            if woken.any():
                attempts = attempts + self._stalled_arr[woken].tolist()
                keep = ~woken
                self._keep_stalled(keep)
            sarr = self._stalled_arr
            if sarr.size:
                st.stall[sarr] += 1
                self._stalled_max += 1
                timeout = self._timeout
                if timeout is not None and self._stalled_max >= timeout:
                    over = st.stall[sarr] >= timeout
                    if over.any():
                        bus = st.bus_id
                        self._timeout_rows(
                            sorted(sarr[over].tolist(),
                                   key=lambda r: bus.item(r)),
                            now, removed)
                        self._keep_stalled(~over)
                    self._stalled_max = (
                        int(st.stall[self._stalled_arr].max())
                        if self._ext_stalled else 0)
        if not attempts:
            return
        bus = st.bus_id
        if len(attempts) > 1:
            attempts.sort(key=lambda r: bus.item(r))
        still: List[int] = []
        any_dead = self._any_dead_reach
        reach_ok = self._reach_ok
        recs = self._records_by_row
        nodes = self._nodes
        for row in attempts:
            hops_len = st.hops_len.item(row)
            if any_dead and not reach_ok[
                    (st.src.item(row) + hops_len) % nodes][
                    st.hops.item(row, hops_len - 1)]:
                # F3: no lane of the next column the header can reach
                # will ever carry the bus (static health, so this fires
                # before a row can stall).
                record = recs[row]
                assert record is not None
                self._fire(row, E_FAULT_NACK)
                note_refusal(record, RefusalKind.FAULT_NACK, now)
                self.fault_nacked += 1
                self._start_nack_walk(row)
                self._g_walk.append(row)
                self._walk_dirty = True
                continue
            before_removed = len(removed)
            self._extend_one(row, now, removed)
            if len(removed) > before_removed:
                continue                       # timed out / accepted / refused
            if st.hops_len.item(row) != hops_len:
                still.append(row)              # moved: attempt again next pass
            else:
                self._stall_row(row)           # blocked: wait on the column
        self._ext_active = still

    def _keep_stalled(self, keep: np.ndarray) -> None:
        """Drop stalled rows where ``keep`` is False, preserving the
        per-row column-epoch snapshots taken when each row stalled."""
        self._stalled_arr = self._stalled_arr[keep]
        self._stalled_seg = self._stalled_seg[keep]
        self._stalled_epoch = self._stalled_epoch[keep]
        self._ext_stalled = self._stalled_arr.tolist()
        self._ext_stalled_seg = self._stalled_seg.tolist()
        self._ext_stalled_epoch = self._stalled_epoch.tolist()

    def _stall_row(self, row: int) -> None:
        """Move an active header to the stalled set, snapshotting its
        column epoch *now* (frees before the next pass must wake it)."""
        st = self._st
        seg = (st.src.item(row) + st.hops_len.item(row)) % self._nodes
        self._ext_stalled.append(row)
        self._ext_stalled_seg.append(seg)
        self._ext_stalled_epoch.append(st.col_epoch.item(seg))
        self._stalled_dirty = True
        stall = st.stall.item(row)
        if stall > self._stalled_max:
            self._stalled_max = stall

    def _timeout_rows(self, rows: Iterable[int], now: float,
                      removed: List[int]) -> None:
        """D8 header timeouts: engine-health signal; books nothing."""
        recs = self._records_by_row
        for row_ in rows:
            row = int(row_)
            record = recs[row]
            assert record is not None
            self._fire(row, E_HEADER_TIMEOUT)
            note_refusal(record, RefusalKind.TIMEOUT, now)
            self.timed_out += 1
            self._start_nack_walk(row)
            self._g_walk.append(row)
            removed.append(row)
        self._walk_dirty = True

    def _extend_one(self, row: int, now: float,
                    removed: List[int]) -> None:
        """One header's exact scalar step against the *current* grid."""
        st = self._st
        record = self._records_by_row[row]
        assert record is not None
        hops_len = st.hops_len.item(row)
        next_seg = (st.src.item(row) + hops_len) % self._nodes
        entry = st.hops.item(row, hops_len - 1)
        usable = st.usable
        pad = entry + 1  # padded-plane index of the entry lane
        if usable[next_seg, pad]:
            lane = entry
        elif usable[next_seg, pad - 1]:
            lane = entry - 1
        elif self.config.extend_up and usable[next_seg, pad + 1]:
            lane = entry + 1
        else:
            # An earlier header claimed the lane this pass: stall.
            stall = st.stall.item(row) + 1
            st.stall[row] = stall
            timeout = self._timeout
            if timeout is not None and stall >= timeout:
                self._fire(row, E_HEADER_TIMEOUT)
                note_refusal(record, RefusalKind.TIMEOUT, now)
                self.timed_out += 1
                self._start_nack_walk(row)
                self._g_walk.append(row)
                self._walk_dirty = True
                removed.append(row)
            return
        # ReserveLane; the stall epoch flushes to the record here.
        self._fire(row, E_EXTEND)
        stall = st.stall.item(row)
        if stall:
            record.head_stall_ticks += stall
            st.stall[row] = 0
        st.claim(next_seg, lane, row, st.bus_id.item(row))
        st.hops[row, hops_len] = lane
        st.hops_len[row] = hops_len + 1
        record.lanes_visited.add(lane)
        self._on_header_advanced(row, record, now)
        if int(st.state[row]) != S_EXTENDING:
            removed.append(row)

    def _on_header_advanced(self, row: int, record: MessageRecord,
                            now: float) -> None:
        st = self._st
        hops_len = st.hops_len.item(row)
        if hops_len != st.span.item(row):
            return
        destination = st.dst.item(row)
        if st.rx_active.item(destination) < self.config.rx_ports:
            st.rx_active[destination] += 1
            st.rx_held[row] = True
            # SendSignal HACK: the Hack walks back from the last hop.
            self._fire(row, E_ACCEPT)
            st.sigpos[row] = hops_len - 1
            self._g_ack.append(row)
        else:
            self._fire(row, E_REFUSE)
            note_refusal(record, RefusalKind.NACK, now)
            self.nacked += 1
            self._start_nack_walk(row)
            self._g_walk.append(row)
            self._walk_dirty = True

    def _start_nack_walk(self, row: int) -> None:
        """SendSignal NACK: release segments as the refusal walks home."""
        st = self._st
        stall = st.stall.item(row)
        if stall:
            record = self._records_by_row[row]
            assert record is not None
            record.head_stall_ticks += stall
            st.stall[row] = 0
        hops_len = st.hops_len.item(row)
        st.sigpos[row] = hops_len - 1
        st.released_from[row] = hops_len
        # The head leaves EXTENDING while still holding its cells, which
        # can change the D9 verdict on an otherwise-unchanged grid —
        # invalidate the compaction quiet-skip.
        st.grid_epoch += 1

    def _admit(self, now: float) -> None:
        """Inject at most one queued message per node per tick."""
        # A pass that moved nothing stays futile until a cell frees, a
        # tx port releases, or a new row is enqueued (claims and other
        # injections only block more) — skip until one of those.
        key = (self._st.free_epoch, self._tx_release_count,
               self._enqueue_count)
        if key == self._admit_quiet:
            return
        before = self.injected + self.fault_nacked
        if self._any_fault or len(self._queued_nodes) <= 4:
            self._admit_scalar(now)
        else:
            self._admit_vector(now)
        self._admit_quiet = \
            key if self.injected + self.fault_nacked == before else None

    def _admit_vector(self, now: float) -> None:
        st = self._st
        if self._queued_dirty:
            self._queued_arr = np.array(sorted(self._queued_nodes),
                                        dtype=np.intp)
            self._queued_dirty = False
        nodes = self._queued_arr
        # Fault-free, every node inserts at the top lane; distinct nodes
        # touch distinct cells and tx budgets, so the pre-pass gate is
        # exact even though injections happen mid-loop.
        lane = self.config.top_lane
        ok = (st.tx_active[nodes] < self.config.tx_ports) \
            & st.usable[nodes, lane + 1]
        if not ok.any():
            return
        for node_ in nodes[ok]:
            node = int(node_)
            queue = self._queues[node]
            row = queue.popleft()
            self._queued_count -= 1
            if not queue:
                self._queued_nodes.discard(node)
                self._queued_dirty = True
            self._inject(row, node, lane, now)

    def _admit_scalar(self, now: float) -> None:
        """Admission with faulty cells present (per-node insert lanes)."""
        st = self._st
        tx_ports = self.config.tx_ports
        tx_active = st.tx_active
        occ = st.occ_bus
        insert_lane = self._insert_lane
        queued = self._queued_nodes
        for node in sorted(queued):
            queue = self._queues[node]
            if tx_active.item(node) >= tx_ports:
                continue
            lane = insert_lane[node]
            if lane < 0:
                # Whole insertion column dead: refuse at the source.
                row = queue.popleft()
                self._queued_count -= 1
                if not queue:
                    queued.discard(node)
                record = self._records_by_row[row]
                assert record is not None
                self._fire(row, E_FAULT_NACK)
                note_refusal(record, RefusalKind.FAULT_NACK, now)
                self.fault_nacked += 1
                self._classify_retry(row, record, now)
                continue
            if occ.item(node, lane) != FREE:
                continue  # top usable lane busy: stay queued
            row = queue.popleft()
            self._queued_count -= 1
            if not queue:
                queued.discard(node)
            self._inject(row, node, lane, now)

    def _inject(self, row: int, node: int, lane: int, now: float) -> None:
        st = self._st
        record = self._records_by_row[row]
        assert record is not None
        # OpenBus.
        self._fire(row, E_INJECT)
        bus_id = self._next_bus_id
        self._next_bus_id += 1
        st.bus_id[row] = bus_id
        st.claim(node, lane, row, bus_id)
        st.hops[row, 0] = lane
        st.hops_len[row] = 1
        st.sigpos[row] = -1
        st.data_sent[row] = 0
        st.released_from[row] = FREE
        st.rx_held[row] = False
        st.stall[row] = 0
        record.lanes_visited.add(lane)
        if record.injected_at is None:
            record.injected_at = now
        st.tx_active[node] += 1
        self.injected += 1
        self._live[row] = None
        self._on_header_advanced(row, record, now)
        if int(st.state[row]) == S_INJECTED:
            self._fire(row, E_EXTEND)  # span > 1: start extending
            self._ext_active.append(row)

    # ------------------------------------------------------------------
    # Compaction (downward, full candidate scan)
    # ------------------------------------------------------------------
    def _global_pass(self, cycle: int) -> None:
        if not self.config.compaction_enabled:
            return
        st = self._st
        stats = self.compaction_stats
        stats.cycles_run += 1
        # Static faults never strand occupants on DYING segments (a
        # non-OK cell is unclaimable from t=0), so the event backend's
        # evacuation sweep is a no-op here by construction.
        if st.occupied_count == 0:
            return
        parity = cycle & 1
        if self._gp_quiet[parity] == st.grid_epoch:
            # Same grid, same parity, same (empty) candidate set.
            return
        # Fused full-grid candidate mask: D2 parity (precomputed per
        # parity) AND "cell below is usable" AND occupied.  In the
        # padded plane the cell below lane L sits at index L, and lane 0
        # hits the always-False pad column — subsuming the lane >= 1
        # legality test.  Near saturation almost every occupied cell
        # fails the below-usable test, so the per-survivor D1/D9
        # legality work runs on a handful of cells.
        mask = self._par_mask[parity] & st.usable[:, : self._lanes]
        np.logical_and(mask, st.occ_bus != FREE, out=mask)
        if not mask.any():
            self._gp_quiet[parity] = st.grid_epoch
            return
        segs, cell_lanes = np.nonzero(mask)  # (seg, lane) ascending
        occ_row = st.occ_row
        src = st.src
        bus_id = st.bus_id
        candidates = []
        for seg, lane in zip(segs.tolist(), cell_lanes.tolist()):
            row = occ_row.item(seg, lane)
            hop = (seg - src.item(row)) % self._nodes
            if self._move_legal(seg, lane, row, hop):
                candidates.append(
                    (lane, seg, bus_id.item(row), hop, row))
        if not candidates:
            self._gp_quiet[parity] = st.grid_epoch
            return
        self._commit_moves(candidates)

    def _commit_moves(
        self, candidates: List[Tuple[int, int, int, int, int]],
    ) -> None:
        """D3 commit loop over ``(lane, seg, bus_id, hop, row)`` tuples:
        higher lanes first; skip hops adjacent to a committed move (the
        register file serializes adjacent-hop moves); re-verify D1
        against the partially-committed grid, since
        :meth:`BatchState.move_down` checks nothing; walk Figure 7 once
        per move class (:func:`move_condition`)."""
        st = self._st
        stats = self.compaction_stats
        committed: set = set()
        for lane, seg, bus_id, hop_, row in sorted(candidates, reverse=True):
            if (bus_id, hop_ - 1) in committed or \
                    (bus_id, hop_ + 1) in committed:
                continue
            if not self._move_legal(seg, lane, row, hop_):
                continue
            up = st.hops.item(row, hop_ - 1) if hop_ > 0 else None
            down = (st.hops.item(row, hop_ + 1)
                    if hop_ < st.hops_len.item(row) - 1 else None)
            condition = move_condition(up, lane, down)
            st.move_down(seg, lane)
            st.hops[row, hop_] = lane - 1
            record = self._records_by_row[row]
            assert record is not None
            record.lanes_visited.add(lane - 1)
            stats.count(condition)
            committed.add((bus_id, hop_))

    def _move_legal(self, seg: int, lane: int, row: int,
                    hop: int) -> bool:
        """Re-verify D1 against the partially-committed grid state."""
        st = self._st
        # Below-cell OK-and-free == the padded usable plane at ``lane``.
        if not st.usable[seg, lane]:
            return False
        hops_len = st.hops_len.item(row)
        released = st.released_from.item(row)
        if hop >= (hops_len if released == FREE else released):
            return False  # walk already released this hop
        if (st.state.item(row) == S_EXTENDING
                and hop == hops_len - 1
                and hops_len < st.span.item(row)):
            return False  # D9: keep a travelling header high
        hops = st.hops
        if hop > 0:
            upstream = hops.item(row, hop - 1)
            if upstream != lane - 1 and upstream != lane:
                return False
        if hop < hops_len - 1:
            downstream = hops.item(row, hop + 1)
            if downstream != lane - 1 and downstream != lane:
                return False
        return True


#: Shared empty index array (boundary-scan default).
_EMPTY = np.empty(0, dtype=np.intp)


def replay_on_batch(ring: BatchRing, schedule: ArrivalSchedule) -> None:
    """Arrange for every schedule entry to be submitted at its time
    (the :func:`repro.traffic.workload.replay_on_ring` twin)."""
    ring.load(schedule)
