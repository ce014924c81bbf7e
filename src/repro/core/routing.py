"""The RMB routing protocol engine — paper Sections 2.2/2.3.

Drives the full message lifecycle on one ring:

1. **Admission** — a node's pending request is injected only when its
   transmit interface is idle *and* the top-lane segment at its INC is
   free (the paper's top-bus-only insertion rule).
2. **Extension** — each flit tick the header flit advances one segment,
   entering the next INC on its current lane and leaving on the lowest
   free reachable lane (``l-1`` preferred, then ``l``, then ``l+1``).  A
   blocked header waits in place, holding its partial virtual bus, while
   compaction keeps packing it downward.
3. **Acceptance** — at the destination, the request is accepted iff the
   INC/PE receive port is free; the Hack (or Nack) walks back along the
   virtual bus one segment per flit tick.
4. **Streaming** — data flits flow only after the Hack reaches the source
   (the paper's stated departure from classic wormhole routing: no
   intermediate buffering, so Dacks never have to stall the pipeline).
5. **Teardown** — the FF is delivered, then the Fack walks back, freeing
   each segment it crosses; freed lanes immediately become compaction
   targets for the buses above.

Nacked or timed-out requests retry after a configurable, jittered backoff.

The lifecycle itself is declared as a transition table in
:mod:`repro.protocol.lifecycle`; this engine is its interpreter.  Every
state change funnels through :meth:`RoutingEngine._fire`, which looks up
the ``(state, event)`` arc in the table compiled once per engine —
raising :class:`~repro.errors.ProtocolError` for any undeclared
transition — and executes the arc's effects via the ``_fx_*`` handler
methods below.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import RMBConfig
from repro.core.derived import DerivedState
from repro.core.flits import Message, MessageRecord
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.core.virtual_bus import BusPhase, VirtualBus
from repro.errors import ProtocolError, RoutingError
from repro.protocol.lifecycle import (
    LIFECYCLE,
    PHASE_NAME_OF_STATE,
    TERMINAL_STATES,
    ArmRetryTimer,
    ClassifyRetry,
    CompleteMessage,
    DisarmRetryTimer,
    DropBus,
    Effect,
    Enqueue,
    HurryRelease,
    LifecycleEvent,
    LifecycleState,
    MarkAbandoned,
    MarkDelivered,
    MarkEstablished,
    MarkRefused,
    MarkShed,
    NoteRefusal,
    OpenBus,
    Park,
    RefusalKind,
    ReleaseEndpoints,
    ReserveLane,
    SendSignal,
    Signal,
    has_arc,
    lifecycle_name,
    note_refusal,
    retry_attempts,
    retry_decision,
)
from repro.sim.rng import RandomStream
from repro.sim.trace import TraceRecorder
from repro.supervision.admission import ADMIT, SHED, AdmissionController

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.wiring import Observability

#: Context dict threaded through one interpreter step (see ``_fire``).
FireContext = Dict[str, object]

#: Lifecycle state -> the :class:`BusPhase` the interpreter mirrors onto
#: the live bus.  Resolved here (not in the table module) so the table
#: stays importable from any layer without an import cycle.
PHASE_OF_STATE: Dict[LifecycleState, BusPhase] = {
    state: BusPhase(name) for state, name in PHASE_NAME_OF_STATE.items()
}

#: Bound once: the passes test every visited bus or lane against them,
#: and an enum member lookup costs several times a global read.
_ACK_RETURN = BusPhase.ACK_RETURN
_STREAMING_PHASE = BusPhase.STREAMING
_OK = PortHealth.OK

#: One arc of the lifecycle table compiled for an engine (see
#: ``RoutingEngine._compile_arcs``): target state, its bus phase (or
#: ``None``), the pass map the bus leaves and the one it enters (both
#: ``None`` when the state does not change), and ``(bound handler,
#: effect)`` pairs in effect order.
CompiledArc = Tuple[
    LifecycleState, Optional[BusPhase],
    Optional[Dict[int, VirtualBus]], Optional[Dict[int, VirtualBus]],
    Tuple[Tuple[Callable[..., None], Effect], ...],
]


class _RetryRequeue:
    """Picklable retry-timer callback: put a message back in its queue.

    A class instead of a closure so pending retry timers — which live in
    the kernel's event queue — survive checkpoint pickling.
    """

    def __init__(self, engine: "RoutingEngine", message: Message) -> None:
        self._engine = engine
        self._message = message

    def __call__(self) -> None:
        self._engine._fire(self._message, LifecycleEvent.RETRY_TIMER)


class RoutingEngine(DerivedState):
    """Message lifecycle driver for one unidirectional RMB ring."""

    _DERIVED = ("_extending", "_signalling", "_streaming", "_parked",
                "_ready", "_reach", "_arcs")

    def __init__(
        self,
        config: RMBConfig,
        grid: SegmentGrid,
        buses: dict[int, VirtualBus],
        now: Callable[[], float],
        schedule: Callable[[float, Callable[[], None]], object],
        rng: Optional[RandomStream] = None,
        trace: Optional[TraceRecorder] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.config = config
        self.grid = grid
        self.buses = buses            # live buses, shared with compaction
        self._now = now
        self._schedule = schedule
        self._rng = rng
        self.trace = trace
        # Cached at construction: disabled tracing (no recorder, or a
        # recorder filtered to no kinds) costs one branch at each record
        # site instead of argument packing plus a call per event.
        self._trace_on = trace is not None and trace.enabled
        # Observability follows the same one-branch discipline; when on,
        # instruments are resolved once here so the lifecycle sites touch
        # plain attributes.  Observation is passive (no RNG, no
        # scheduling), so attaching it never changes simulation results.
        self.obs = obs
        self._obs_on = obs is not None
        if self._obs_on:
            registry = obs.registry
            self._spans = obs.spans
            self._h_setup = registry.histogram(
                "rmb_setup_latency_ticks",
                help="Injection to circuit establishment, per attempt")
            self._h_complete = registry.histogram(
                "rmb_completion_latency_ticks",
                help="First injection to Fack return, per message")
            self._h_retries = registry.histogram(
                "rmb_retries_per_message",
                help="Retry attempts accumulated by completed messages")
            self._h_head_stalls = registry.histogram(
                "rmb_head_stalls_per_message",
                help="Header stall ticks accumulated by completed messages")
        self._next_bus_id = 0
        self._queues: list[Deque[Message]] = [deque() for _ in range(config.nodes)]
        self._tx_active = [0] * config.nodes
        self._rx_active = [0] * config.nodes
        # Admission control (supervision S2): over-limit submissions are
        # shed or parked per source INC until outstanding load drops.
        self.admission = AdmissionController(config.admission_limit,
                                             config.admission_policy)
        if self._obs_on:
            self.admission.attach_metrics(obs.registry)
        self._deferred: list[Deque[Message]] = [deque()
                                                for _ in range(config.nodes)]
        self._awaiting_retry_by_node = [0] * config.nodes
        # Per-node lifetime retry totals, charged against the retry
        # policy's node_budget (None = unlimited, the historical rule).
        self._node_retry_totals = [0] * config.nodes
        # Receive-port reservations per live bus: the nodes (taps plus the
        # final destination) whose RX port this bus currently holds.
        self._rx_holders: dict[int, set[int]] = {}
        self.records: dict[int, MessageRecord] = {}
        #: Lifecycle FSM state per message id (the authoritative protocol
        #: state; ``bus.phase`` is the derived per-bus view kept in
        #: lock-step by the interpreter).
        self._lifecycle: Dict[int, LifecycleState] = {}
        #: When set to a list (conformance tests), every interpreter step
        #: appends ``(message_id, state, event, target)``.
        self.fsm_log: Optional[
            List[Tuple[int, LifecycleState, LifecycleEvent, LifecycleState]]
        ] = None
        self._stall_ticks: dict[int, int] = {}   # bus_id -> consecutive stalls
        #: Header passes run so far: the clock parked headers wait on.
        self._passes = 0
        # Aggregate counters
        self.injected = 0
        self.established = 0
        self.delivered = 0
        self.completed = 0
        self.nacked = 0
        self.timed_out = 0
        self.abandoned = 0
        self.fault_nacked = 0
        self.fault_killed = 0
        self.shed = 0
        self.budget_abandoned = 0
        self.forced_teardowns = 0
        self.flits_delivered = 0
        self._awaiting_retry = 0
        #: Optional callback fired when a message fully completes (its
        #: Fack returned and all ports were freed).  Used by the grid
        #: composition layer to chain multi-ring journeys.
        self.on_complete: Optional[Callable[[MessageRecord], None]] = None
        self.rebuild_derived()

    def rebuild_derived(self) -> None:
        """Compute the pass maps (in ``buses`` order), parked headers
        (none), ready nodes, header reach and compiled arcs (DESIGN.md
        §9 P8, P10)."""
        #: The buses each flit-tick pass visits, keyed by bus id: headers
        #: extending, reverse signals walking home, and data streaming or
        #: draining.  ``_fire`` keeps all three in step (DESIGN.md P5).
        self._extending: dict[int, VirtualBus] = {}
        self._signalling: dict[int, VirtualBus] = {}
        self._streaming: dict[int, VirtualBus] = {}
        for bus_id, bus in self.buses.items():
            kept = self._pass_of(self._lifecycle[bus.message.message_id])
            if kept is not None:
                kept[bus_id] = bus
        #: Stalled headers: bus_id -> ``(head column, its epoch, next
        #: column, its epoch, last pass counted in its stall ticks, pass
        #: its header timeout falls due)`` when its lane pick last failed
        #: (DESIGN.md P4, P5).
        self._parked: dict[int, tuple[int, int, int, int, int, float]] = {}
        #: Nodes with a queued request and a free transmit port: the
        #: only nodes admission visits.
        self._ready: set[int] = set()
        for node in range(self.config.nodes):
            self._note_ready(node)
        #: Entry lane -> the lanes a header on it may extend onto, in
        #: preference order: straight, down, then up (if allowed).
        lanes = self.config.lanes
        steps = (0, -1, 1) if self.config.extend_up else (0, -1)
        self._reach: tuple[tuple[int, ...], ...] = tuple(
            tuple(entry + step for step in steps
                  if 0 <= entry + step < lanes)
            for entry in range(lanes))
        self._compile_arcs()

    def _compile_arcs(self) -> None:
        """Compile :data:`LIFECYCLE` against this engine's pass maps and
        handlers, so ``_fire`` resolves each arc with one lookup.  Call
        it again after replacing a pass map."""
        # Effect type -> handler method.
        dispatch: Dict[type, Callable[..., None]] = {
            Enqueue: self._fx_enqueue,
            Park: self._fx_park,
            MarkShed: self._fx_mark_shed,
            OpenBus: self._fx_open_bus,
            ReserveLane: self._fx_reserve_lane,
            NoteRefusal: self._fx_note_refusal,
            SendSignal: self._fx_send_signal,
            MarkEstablished: self._fx_mark_established,
            MarkDelivered: self._fx_mark_delivered,
            ReleaseEndpoints: self._fx_release_endpoints,
            MarkRefused: self._fx_mark_refused,
            CompleteMessage: self._fx_complete_message,
            DropBus: self._fx_drop_bus,
            ClassifyRetry: self._fx_classify_retry,
            ArmRetryTimer: self._fx_arm_retry_timer,
            MarkAbandoned: self._fx_mark_abandoned,
            DisarmRetryTimer: self._fx_disarm_retry_timer,
            HurryRelease: self._fx_hurry_release,
        }
        self._arcs: Dict[Tuple[LifecycleState, LifecycleEvent],
                         CompiledArc] = {}
        for (state, event), arc in LIFECYCLE.items():
            moves = arc.target is not state
            self._arcs[(state, event)] = (
                arc.target,
                PHASE_OF_STATE.get(arc.target),
                self._pass_of(state) if moves else None,
                self._pass_of(arc.target) if moves else None,
                tuple((dispatch[type(effect)], effect)
                      for effect in arc.effects),
            )

    def __getstate__(self) -> dict:
        # Dropped parked headers must have counted their stall ticks;
        # settling here would be unsound (DESIGN.md P5).
        if any(wait[4] != self._passes for wait in self._parked.values()):
            raise ProtocolError(
                "parked headers have unsettled stall ticks: call "
                "settle_stalls() before pickling"
            )
        return super().__getstate__()

    # ------------------------------------------------------------------
    # Lifecycle FSM interpreter
    # ------------------------------------------------------------------
    def _fire(self, message: Message, event: LifecycleEvent,
              bus: Optional[VirtualBus] = None,
              ctx: Optional[FireContext] = None) -> FireContext:
        """Take one declared lifecycle transition and run its effects.

        Firing an event with no declared arc from the message's current
        state is a protocol-conformance violation and raises
        :class:`~repro.errors.ProtocolError` — the transition table in
        :data:`repro.protocol.lifecycle.LIFECYCLE` is the single source
        of truth for what may happen next; ``_arcs`` is its compiled
        form (DESIGN.md §9 P10).
        """
        message_id = message.message_id
        state = self._lifecycle[message_id]
        arc = self._arcs.get((state, event))
        if arc is None:
            raise ProtocolError(
                f"msg{message_id}: undeclared lifecycle transition "
                f"({state.value}, {event.value})"
            )
        target, phase, left, entered, effects = arc
        if self.fsm_log is not None:
            self.fsm_log.append((message_id, state, event, target))
        self._lifecycle[message_id] = target
        if bus is not None:
            if phase is not None:
                bus.phase = phase
            if left is not None:
                del left[bus.bus_id]
                wait = self._parked.pop(bus.bus_id, None)
                if wait is not None:
                    # A parked header leaves EXTENDING: count the
                    # passes it waited out unvisited (DESIGN.md P5).
                    self._settle(bus, self._passes - wait[4])
            if entered is not None:
                entered[bus.bus_id] = bus
        if ctx is None:
            ctx = {}
        record = self.records[message_id]
        for handler, effect in effects:
            handler(message, record, bus, ctx, effect)
        return ctx

    def _pass_of(self, state: LifecycleState) -> Optional[dict[int, VirtualBus]]:
        """The bus map of the flit-tick pass that acts in ``state``: the
        header pass, the reverse-signal pass (Hack, Nack or Fack walking
        home) or the stream pass (data, then the FF).  Read only when
        the arcs are compiled."""
        if state is LifecycleState.EXTENDING:
            return self._extending
        if state in (LifecycleState.ESTABLISHED, LifecycleState.NACKED,
                     LifecycleState.RELEASING):
            return self._signalling
        if state in (LifecycleState.STREAMING, LifecycleState.DRAINING):
            return self._streaming
        return None

    def lifecycle_census(self) -> Dict[str, int]:
        """Pending messages per lifecycle state, in state-declaration order.

        Terminal states (delivered / abandoned / shed) are excluded: the
        census describes outstanding work, the vocabulary drain errors,
        livelock diagnostics and watchdog incidents report in.
        """
        counts: Dict[LifecycleState, int] = {}
        for state in self._lifecycle.values():
            if state not in TERMINAL_STATES:
                counts[state] = counts.get(state, 0) + 1
        return {state.value: counts[state]
                for state in LifecycleState if state in counts}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def submit(self, message: Message) -> MessageRecord:
        """Queue a message for transmission; returns its live record.

        Admission control (when configured) is applied here: a source
        whose outstanding count has reached the cap has the submission
        shed (record marked, never queued) or deferred into a per-INC
        holding queue that drains as capacity frees.
        """
        self._validate(message)
        if message.message_id in self.records:
            raise RoutingError(
                f"duplicate message id {message.message_id}"
            )
        message.validate_multicast_order(self.config.nodes)
        record = MessageRecord(message=message)
        self.records[message.message_id] = record
        self._lifecycle[message.message_id] = LifecycleState.NEW
        if self._trace_on:
            self._record("request", message, source=message.source,
                         destination=message.destination)
        if self._obs_on:
            self._spans.begin(message, self._now())
        verdict = self.admission.decide(self.outstanding(message.source))
        if verdict == ADMIT:
            self._fire(message, LifecycleEvent.ADMIT)
        elif verdict == SHED:
            self._fire(message, LifecycleEvent.SHED)
            self._record("shed", message, node=message.source)
            if self._obs_on:
                self._spans.event(message.message_id, self._now(), "shed")
        else:
            self._fire(message, LifecycleEvent.DEFER)
            self._record("defer", message, node=message.source)
            if self._obs_on:
                self._spans.event(message.message_id, self._now(), "defer")
        return record

    def outstanding(self, node: int) -> int:
        """Requests ``node`` currently has queued, in flight, or backing off.

        This is the quantity the admission cap bounds (deferred requests
        are parked *before* admission and deliberately excluded).
        """
        return (len(self._queues[node]) + self._tx_active[node]
                + self._awaiting_retry_by_node[node])

    def pending(self) -> int:
        """Requests queued, deferred, in flight, or awaiting a retry timer.

        Zero means the network is fully drained: abandoned messages (the
        ``max_retries`` path) and shed messages are not pending.
        """
        queued = sum(len(queue) for queue in self._queues)
        deferred = sum(len(queue) for queue in self._deferred)
        return queued + deferred + len(self.buses) + self._awaiting_retry

    def live_bus_count(self) -> int:
        """Virtual buses currently holding at least one segment."""
        return sum(1 for bus in self.buses.values() if bus.alive)

    def exploration_signature(self) -> tuple:
        """Hashable digest of every protocol-visible engine component.

        The model checker (:mod:`repro.protocol.explore`) identifies two
        worlds exactly when their signatures agree, so this must cover
        every piece of engine state that can influence a future
        transition — and nothing that cannot (stall counters are elided
        when no ``header_timeout`` bounds them, otherwise states would
        differ forever without behavioural consequence).

        Components, in order:

        0. per-node queued message ids (FIFO order),
        1. per-node deferred message ids (FIFO order),
        2. bus creation order, as message ids (tick processing iterates
           the bus dict, so the order is behaviourally significant),
        3. per-bus observable state ``(message_id, phase, hops,
           signal_position, data_sent, released_from, rx_holders)``,
        4. sorted ``(message_id, stall_ticks)`` pairs (empty when no
           header timeout is configured),
        5. sorted per-message lifecycle/record tuples,
        6.–8. per-node ``tx_active`` / ``rx_active`` /
           ``awaiting_retry`` counters,
        9. per-node lifetime retry totals (empty unless the retry policy
           sets a ``node_budget``, the only thing they feed).

        Node-indexed components are rotation-covariant and message ids
        appear only through these tuples, which is what lets the
        explorer's symmetry quotient relabel them structurally.
        """
        self.settle_stalls()
        by_message = {
            bus.bus_id: bus.message.message_id for bus in self.buses.values()
        }
        queues = tuple(
            tuple(m.message_id for m in q) for q in self._queues
        )
        deferred = tuple(
            tuple(m.message_id for m in q) for q in self._deferred
        )
        bus_order = tuple(by_message[bus_id] for bus_id in self.buses)
        bus_states = tuple(
            (
                by_message[bus.bus_id],
                bus.phase.value,
                tuple(bus.hops),
                bus.signal_position,
                bus.data_sent,
                -1 if bus.released_from is None else bus.released_from,
                tuple(sorted(self._rx_holders.get(bus.bus_id, ()))),
            )
            for bus in self.buses.values()
        )
        if self.config.retry.header_timeout is None:
            stalls: tuple[tuple[int, int], ...] = ()
        else:
            stalls = tuple(
                sorted(
                    (by_message[bus_id], ticks)
                    for bus_id, ticks in self._stall_ticks.items()
                    if bus_id in self.buses
                )
            )
        # Without a retry cap the refusal counters are behaviourally
        # inert under the explorer's untimed abstraction — they feed
        # only the backoff delay (which nondeterministic timer firing
        # abstracts away) and statistics — so they are elided exactly
        # like uncapped stall counters: otherwise one dead segment plus
        # unlimited retries makes the signature space infinite.
        capped = self.config.retry.max_retries is not None
        records = tuple(
            (
                message_id,
                self._lifecycle[message_id].value,
                record.retries if capped else 0,
                record.nacks if capped else 0,
                record.fault_nacks if capped else 0,
                record.deferred,
                record.backoff_floor if capped else 0,
                record.abandoned,
                record.shed,
                record.finished,
            )
            for message_id, record in sorted(self.records.items())
        )
        return (
            queues,
            deferred,
            bus_order,
            bus_states,
            stalls,
            records,
            tuple(self._tx_active),
            tuple(self._rx_active),
            tuple(self._awaiting_retry_by_node),
            (tuple(self._node_retry_totals)
             if self.config.retry.node_budget is not None else ()),
        )

    def flit_tick(self) -> None:
        """Advance the protocol by one flit tick.

        Processing order within a tick is fixed for determinism: reverse
        signals first (they free resources), then data movement, then
        header extension, then new admissions (which want freshly freed
        top-lane segments).  On an idle ring (no bus, no ready node,
        nothing held for admission to release) every pass would only
        count the header pass, so the tick does just that (DESIGN.md §9
        P9).
        """
        if not self.buses and not self._ready and \
                not self.admission.holding:
            self._passes += 1
            return
        self._advance_signals()
        self._advance_streams()
        self._advance_headers()
        self._admit()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        self._release_deferred()
        if not self._ready:
            return
        queues = self._queues
        grid = self.grid
        if not grid.faulty_count():
            # Fault-free every node inserts on the top lane: test that
            # segment inline, no dearer than a parked header's check.
            top = self.config.top_lane
            occupant = grid._occupant
            for node in sorted(self._ready):
                if occupant[node][top] is None:
                    self._inject(queues[node].popleft(), top)
            return
        for node in sorted(self._ready):
            queue = queues[node]
            lane = self._insertion_lane(node)
            if lane is None:
                # Every output segment at this INC is DYING or DEAD: the
                # node cannot insert at all.  Nack the request back to the
                # PE immediately (waiting cannot help until a repair) and
                # let the backoff machinery retry.
                self._fault_nack_queued(queue.popleft())
                continue
            if not grid.is_free(node, lane):
                continue
            message = queue.popleft()
            self._inject(message, lane)

    def _note_ready(self, node: int) -> None:
        """Keep ``node`` in ``_ready`` iff it could inject: a request
        queued and a transmit port free."""
        if self._queues[node] and \
                self._tx_active[node] < self.config.tx_ports:
            self._ready.add(node)
        else:
            self._ready.discard(node)

    def _release_deferred(self) -> None:
        """Move deferred requests into the real queues as capacity frees."""
        if not self.admission.holding:
            return
        for node in range(self.config.nodes):
            held = self._deferred[node]
            while held and self.admission.may_release(self.outstanding(node)):
                self._admit_held(node)

    def flush_deferred(self) -> int:
        """Release every deferred request unconditionally; returns the count.

        The admission queues are only drained by :meth:`_release_deferred`
        while a cap is configured — with the cap removed (e.g. degraded
        mode restoring an unlimited configuration) anything still parked
        would wait forever.  The recovery manager calls this on degraded
        exit.
        """
        released = 0
        for node in range(self.config.nodes):
            held = self._deferred[node]
            while held:
                self._admit_held(node)
                released += 1
        return released

    def _admit_held(self, node: int) -> None:
        """Admit the oldest request held at ``node``."""
        message = self._deferred[node].popleft()
        self.admission.note_released()
        self._fire(message, LifecycleEvent.ADMIT_DEFERRED)
        self._record("admit_deferred", message, node=node)
        if self._obs_on:
            self._spans.event(message.message_id, self._now(),
                              "admit_deferred")

    def _insertion_lane(self, node: int) -> Optional[int]:
        """Lane new requests enter on at ``node``: the highest healthy lane.

        Fault-free this is always the top lane (the paper's top-bus-only
        insertion rule).  Under faults the rule degrades gracefully: the
        insertion point slides down to the highest lane whose output
        segment still works (design decision F3).  ``None`` when the whole
        column is faulty.  ``_admit`` tests the fault-free case inline.
        """
        for lane in range(self.config.top_lane, -1, -1):
            if self.grid.health(node, lane) is PortHealth.OK:
                return lane
        return None

    def _fault_nack_queued(self, message: Message) -> None:
        """Refuse a queued request whose source INC has no healthy output."""
        self._record("fault_nack", message, node=message.source,
                     reason="source_column_dead")
        if self._obs_on:
            self._spans.event(message.message_id, self._now(), "fault_nack",
                              reason="source_column_dead")
        self._note_ready(message.source)
        self._fire(message, LifecycleEvent.FAULT_NACK)

    def _inject(self, message: Message, top: int) -> None:
        ctx = self._fire(message, LifecycleEvent.INJECT, ctx={"lane": top})
        bus = ctx["bus"]
        assert isinstance(bus, VirtualBus)
        if self._trace_on:
            self._record("inject", message, bus=bus.bus_id, lane=top)
        if self._obs_on:
            self._spans.event(message.message_id, self._now(), "inject",
                              lane=top)
        self._on_header_advanced(bus)
        # INJECTED is transient: if the header neither resolved at its
        # destination nor bounced, it is now in the extension pipeline.
        if self._lifecycle[message.message_id] is LifecycleState.INJECTED:
            self._fire(message, LifecycleEvent.EXTEND, bus=bus)

    # ------------------------------------------------------------------
    # Header extension
    # ------------------------------------------------------------------
    def _advance_headers(self) -> None:
        epochs = self.grid.epochs
        parked = self._parked
        nodes = self.config.nodes
        self._passes += 1
        now = self._passes
        for bus_id, bus in list(self._extending.items()):
            wait = parked.get(bus_id)
            if wait is not None:
                # The evaluation below reads only the head and next
                # columns; while neither has changed since it last
                # failed, it fails again, so the header just waits
                # (DESIGN.md P4).  Its stall ticks are counted when it
                # is next evaluated, leaves EXTENDING or is read, and
                # its header timeout is a deadline (P5).
                stuck = epochs[wait[0]] == wait[1] and \
                    epochs[wait[2]] == wait[3]
                if stuck and now < wait[5]:
                    continue
                del parked[bus_id]
                self._settle(bus, now - 1 - wait[4])
                if stuck:
                    self._stall(bus)  # the header timeout falls due
                    continue
            hops = bus.hops
            drawn = len(hops)
            if drawn == bus.span:
                continue  # complete: the header is at its destination
            next_segment = (bus.source + drawn) % nodes
            entry = hops[-1]
            lane = self._pick_extension_lane(next_segment, entry)
            if lane is None:
                reason = self._dead_ahead(next_segment, entry)
                if reason is not None:
                    # No amount of waiting or compaction frees a path
                    # until a repair.  Nack back to the source instead
                    # of stalling into the timeout (F3).
                    self._record("fault_nack", bus.message, bus=bus.bus_id,
                                 **{reason: next_segment})
                    if self._obs_on:
                        self._spans.event(bus.message.message_id,
                                          self._now(), "fault_nack",
                                          reason=reason, segment=next_segment)
                    self._fire(bus.message, LifecycleEvent.FAULT_NACK,
                               bus=bus)
                    continue
                head_segment = (next_segment - 1) % nodes
                stalls = self._stall_ticks[bus_id] + 1
                parked[bus_id] = (
                    head_segment, epochs[head_segment],
                    next_segment, epochs[next_segment],
                    now, now + self._stalls_to_timeout(stalls))
                self._stall(bus)
                continue
            self._fire(bus.message, LifecycleEvent.EXTEND, bus=bus,
                       ctx={"segment": next_segment, "lane": lane})
            if self._trace_on:
                self._record("extend", bus.message, bus=bus.bus_id,
                             segment=next_segment, lane=lane)
            self._on_header_advanced(bus)

    def _pick_extension_lane(self, segment: int, entry_lane: int) -> Optional[int]:
        """Lane the header extends onto at ``segment``, or ``None``.

        Preference order is *straight first*: the header propagates along
        the lane it is on (the paper's "the request then propagates along
        that bus"); descending and ascending are fallbacks that let a
        stalled header slip past a busy lane.  Downward packing of the
        drawn bus is compaction's job, not the header's.  ``_reach``
        holds that order per entry lane; a lane is taken if it is healthy
        and free (``SegmentGrid.is_usable``).
        """
        grid = self.grid
        occupant = grid._occupant[segment]
        health = grid._health[segment]
        for lane in self._reach[entry_lane]:
            if occupant[lane] is None and health[lane] is _OK:
                return lane
        return None

    def _dead_ahead(self, segment: int, entry_lane: int) -> Optional[str]:
        """Why a header on ``entry_lane`` cannot extend into ``segment``
        before a repair, or ``None`` while it still may (F3).

        ``"dead_column"``: no lane of the column is healthy.
        ``"dead_reach"``: healthy lanes remain, but none the header can
        reach (:meth:`RMBConfig.header_reach`).
        """
        grid = self.grid
        if not grid.faulty_count():
            return None
        if any(grid.health(segment, lane) is PortHealth.OK
               for lane in self.config.header_reach(entry_lane)):
            return None
        if any(grid.health(segment, lane) is PortHealth.OK
               for lane in range(self.config.lanes)):
            return "dead_reach"
        return "dead_column"

    def _stall(self, bus: VirtualBus) -> None:
        bus.record.head_stall_ticks += 1
        stalls = self._stall_ticks.get(bus.bus_id, 0) + 1
        self._stall_ticks[bus.bus_id] = stalls
        timeout = self.config.retry.header_timeout
        if timeout is not None and stalls >= timeout:
            self._record("header_timeout", bus.message, bus=bus.bus_id,
                         hops=len(bus.hops))
            if self._obs_on:
                self._spans.event(bus.message.message_id, self._now(),
                                  "header_timeout", hops=len(bus.hops))
            self._fire(bus.message, LifecycleEvent.HEADER_TIMEOUT, bus=bus)

    def _stalls_to_timeout(self, stalls: int) -> float:
        """Stall ticks after ``stalls`` until ``_stall``'s header-timeout
        test first holds (``inf`` without a timeout)."""
        timeout = self.config.retry.header_timeout
        if timeout is None:
            return math.inf
        return max(stalls + 1, math.ceil(timeout)) - stalls

    def _settle(self, bus: VirtualBus, ticks: int) -> None:
        """Count ``ticks`` stall ticks a parked header waited unvisited."""
        bus.record.head_stall_ticks += ticks
        self._stall_ticks[bus.bus_id] += ticks

    def settle_stalls(self) -> None:
        """Bring every parked header's stall ticks up to the last pass.

        A parked header is not visited while it waits (DESIGN.md P5), so
        its record and stall count lag behind; every reader of them
        (statistics, exploration signatures) calls this first.
        """
        now = self._passes
        for bus_id, wait in list(self._parked.items()):
            if wait[4] != now:
                self._settle(self._extending[bus_id], now - wait[4])
                self._parked[bus_id] = wait[:4] + (now, wait[5])

    def _on_header_advanced(self, bus: VirtualBus) -> None:
        """Handle the header's arrival at its current INC.

        Tap destinations reserve a receive port as the header passes (the
        multicast extension); a busy tap refuses the whole request.  At
        the final destination the request is accepted iff an RX port is
        free, sending the Hack (or Nack) back along the virtual bus.
        """
        message = bus.message
        complete = len(bus.hops) == bus.span
        if message.extra_destinations and not complete:
            # The INC the header is at.
            at_node = (bus.source + len(bus.hops)) % self.config.nodes
            if at_node in message.extra_destinations:
                if self._reserve_rx(bus, at_node):
                    self._fire(message, LifecycleEvent.TAP_JOIN, bus=bus)
                    self._record("tap_join", message, bus=bus.bus_id,
                                 node=at_node)
                else:
                    self._record("nack", message, bus=bus.bus_id,
                                 busy_tap=at_node)
                    if self._obs_on:
                        self._spans.event(message.message_id, self._now(),
                                          "nack", busy=at_node)
                    self._fire(message, LifecycleEvent.REFUSE, bus=bus)
                    return
        if not complete:
            return
        if self._reserve_rx(bus, bus.destination):
            self._fire(message, LifecycleEvent.ACCEPT, bus=bus)
            if self._trace_on:
                self._record("hack", message, bus=bus.bus_id)
            if self._obs_on:
                self._spans.event(message.message_id, self._now(), "hack",
                                  hops=len(bus.hops))
        else:
            self._record("nack", message, bus=bus.bus_id,
                         busy_destination=bus.destination)
            if self._obs_on:
                self._spans.event(message.message_id, self._now(), "nack",
                                  busy=bus.destination)
            self._fire(message, LifecycleEvent.REFUSE, bus=bus)

    def _reserve_rx(self, bus: VirtualBus, node: int) -> bool:
        """Claim one RX port at ``node`` for ``bus`` if one is free."""
        if self._rx_active[node] >= self.config.rx_ports:
            return False
        self._rx_active[node] += 1
        self._rx_holders[bus.bus_id].add(node)
        return True

    def _release_rx(self, bus: VirtualBus, node: int) -> None:
        """Return ``bus``'s RX port at ``node``, if it holds one."""
        if node in self._rx_holders.get(bus.bus_id, ()):
            self._rx_holders[bus.bus_id].discard(node)
            self._rx_active[node] -= 1

    # ------------------------------------------------------------------
    # Reverse signals (Hack / Nack / Fack)
    # ------------------------------------------------------------------
    def _advance_signals(self) -> None:
        if not self._signalling:
            return
        # Bus-id order, as ever: a finished Nack walk arms a retry timer
        # whose jitter draws from the RNG.
        for _, bus in sorted(self._signalling.items()):
            if bus.phase is _ACK_RETURN:
                bus.signal_position -= 1
                if bus.signal_position < 0:
                    self._fire(bus.message, LifecycleEvent.HACK_AT_SOURCE,
                               bus=bus)
                    if self._trace_on:
                        self._record("established", bus.message,
                                     bus=bus.bus_id)
                    if self._obs_on:
                        record = bus.record
                        self._h_setup.observe(record.established_at
                                              - record.injected_at)
                        self._spans.event(bus.message.message_id,
                                          self._now(), "established")
            else:  # NACK_RETURN or TEARDOWN
                self._release_step(bus)

    def _release_step(self, bus: VirtualBus) -> None:
        position = bus.signal_position
        if position >= 0:
            nodes = self.config.nodes
            segment = (bus.source + position) % nodes
            self.grid.release(segment, bus.hops[position], bus.bus_id)
            bus.released_from = position
            bus.signal_position -= 1
            # The reverse signal passes the INC after this segment; any
            # receive reservation there is released as it goes by.
            if self._rx_holders.get(bus.bus_id):
                self._release_rx(bus, (segment + 1) % nodes)
        if bus.signal_position < 0:
            self._fire(bus.message, LifecycleEvent.RELEASE_DONE, bus=bus)

    # ------------------------------------------------------------------
    # Supervision hooks (watchdog recovery actions)
    # ------------------------------------------------------------------
    def force_teardown(self, bus_id: int) -> bool:
        """Watchdog recovery: Nack a stalled bus back to its source.

        Counts as a refusal (the source retries with backoff) so the
        message is never lost, only delayed.  Returns ``False`` when the
        bus is gone or its state declares no FORCE_TEARDOWN arc (it is
        already releasing) — forcing it again would corrupt the release
        walk.
        """
        bus = self.buses.get(bus_id)
        if bus is None:
            return False
        state = self._lifecycle[bus.message.message_id]
        if not has_arc(state, LifecycleEvent.FORCE_TEARDOWN):
            return False
        self._record("watchdog_teardown", bus.message, bus=bus.bus_id,
                     state=state.value)
        if self._obs_on:
            self._spans.event(bus.message.message_id, self._now(),
                              "watchdog_teardown", state=state.value)
        self._fire(bus.message, LifecycleEvent.FORCE_TEARDOWN, bus=bus)
        return True

    def reset_backoff(self, message_id: int) -> None:
        """Watchdog recovery: forgive a message's accumulated backoff.

        The next retry delay restarts from ``retry.delay`` instead of the
        current exponential step; an already-armed retry timer is not
        touched (rescheduling it would break checkpoint determinism).
        """
        record = self.records[message_id]
        record.backoff_floor = retry_attempts(record)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def fail_bus(self, bus_id: int, segment: int, lane: int) -> None:
        """A DEAD segment caught ``bus_id`` still holding it: tear down now.

        The failing hardware cannot carry reverse signals, so the release
        walk is performed immediately rather than one hop per flit tick
        (the INCs detect loss of carrier and free their ports locally).
        The outcome depends on how far the message got:

        * data fully delivered (RELEASING) — the message completes; only
          the teardown shortcut is observable;
        * otherwise — the virtual bus is lost, the source is Nacked and
          the whole message retries with exponential backoff.  Data flits
          already streamed are re-sent on the retry, so a message is never
          partially delivered (fault model F4).
        """
        bus = self.buses.get(bus_id)
        if bus is None:
            return
        delivered = bus.record.delivered_at is not None
        self._record("fault_kill", bus.message, bus=bus.bus_id,
                     segment=segment, lane=lane,
                     state=lifecycle_name(bus.phase), delivered=delivered)
        if self._obs_on:
            self._spans.event(bus.message.message_id, self._now(),
                              "fault_kill", segment=segment, lane=lane,
                              delivered=delivered)
        self._fire(bus.message, LifecycleEvent.FAULT_KILL, bus=bus)

    # ------------------------------------------------------------------
    # Data streaming
    # ------------------------------------------------------------------
    def _advance_streams(self) -> None:
        if not self._streaming:
            return
        for _, bus in sorted(self._streaming.items()):
            if bus.phase is _STREAMING_PHASE:
                if bus.data_sent < bus.message.data_flits:
                    if bus.data_sent == 0 and self._obs_on:
                        self._spans.event(bus.message.message_id,
                                          self._now(), "first_data")
                    bus.data_sent += 1
                else:
                    self._fire(bus.message, LifecycleEvent.FINAL_FLIT,
                               bus=bus)
                    if self._trace_on:
                        self._record("final_flit", bus.message,
                                     bus=bus.bus_id)
            else:  # DRAINING
                bus.signal_position += 1
                if bus.message.extra_destinations:
                    self._deliver_tap(bus)
                if bus.signal_position >= bus.span:
                    self._fire(bus.message, LifecycleEvent.DELIVER, bus=bus)
                    if self._trace_on:
                        self._record("delivered", bus.message,
                                     bus=bus.bus_id)
                    if self._obs_on:
                        self._spans.event(bus.message.message_id,
                                          self._now(), "delivered")

    def _deliver_tap(self, bus: VirtualBus) -> None:
        """The draining FF has crossed hop ``signal_position - 1`` and
        reached the INC after it: a tap there has now received every
        flit."""
        tap_node = (bus.source + bus.signal_position) % self.config.nodes
        if tap_node in bus.message.extra_destinations and \
                tap_node not in bus.record.tap_delivered_at:
            bus.record.tap_delivered_at[tap_node] = self._now()
            self.flits_delivered += bus.message.total_flits
            self._release_rx(bus, tap_node)
            if self._trace_on:
                self._record("tap_delivered", bus.message,
                             bus=bus.bus_id, node=tap_node)
            if self._obs_on:
                self._spans.event(bus.message.message_id, self._now(),
                                  "tap_delivered", node=tap_node)

    # ------------------------------------------------------------------
    # Effect handlers (the interpreter's vocabulary)
    # ------------------------------------------------------------------
    def _fx_enqueue(self, message: Message, record: MessageRecord,
                    bus: Optional[VirtualBus], ctx: FireContext,
                    effect: Effect) -> None:
        self._queues[message.source].append(message)
        self._note_ready(message.source)

    def _fx_park(self, message: Message, record: MessageRecord,
                 bus: Optional[VirtualBus], ctx: FireContext,
                 effect: Effect) -> None:
        record.deferred += 1
        self._deferred[message.source].append(message)

    def _fx_mark_shed(self, message: Message, record: MessageRecord,
                      bus: Optional[VirtualBus], ctx: FireContext,
                      effect: Effect) -> None:
        record.shed = True
        self.shed += 1

    def _fx_open_bus(self, message: Message, record: MessageRecord,
                     bus: Optional[VirtualBus], ctx: FireContext,
                     effect: Effect) -> None:
        top = ctx["lane"]
        assert isinstance(top, int)
        opened = VirtualBus(
            bus_id=self._next_bus_id,
            message=message,
            record=record,
            ring_size=self.config.nodes,
        )
        self._next_bus_id += 1
        self.grid.claim(message.source, top, opened.bus_id)
        opened.hops.append(top)
        record.lanes_visited.add(top)
        if record.injected_at is None:
            record.injected_at = self._now()
        self.buses[opened.bus_id] = opened
        self._tx_active[message.source] += 1
        self._note_ready(message.source)
        self._rx_holders[opened.bus_id] = set()
        self._stall_ticks[opened.bus_id] = 0
        self.injected += 1
        ctx["bus"] = opened

    def _fx_reserve_lane(self, message: Message, record: MessageRecord,
                         bus: Optional[VirtualBus], ctx: FireContext,
                         effect: Effect) -> None:
        assert bus is not None
        segment = ctx["segment"]
        lane = ctx["lane"]
        assert isinstance(segment, int) and isinstance(lane, int)
        self._stall_ticks[bus.bus_id] = 0
        self.grid.claim(segment, lane, bus.bus_id)
        bus.hops.append(lane)
        record.lanes_visited.add(lane)

    def _fx_note_refusal(self, message: Message, record: MessageRecord,
                         bus: Optional[VirtualBus], ctx: FireContext,
                         effect: Effect) -> None:
        assert isinstance(effect, NoteRefusal)
        kind = effect.kind
        if kind is RefusalKind.WATCHDOG:
            self.forced_teardowns += 1
        note_refusal(record, kind, self._now())
        if kind is RefusalKind.NACK or kind is RefusalKind.WATCHDOG:
            self.nacked += 1
        elif kind is RefusalKind.TIMEOUT:
            self.timed_out += 1
        elif kind is RefusalKind.FAULT_NACK:
            self.fault_nacked += 1
        elif kind is RefusalKind.FAULT_KILL:
            self.fault_killed += 1

    def _fx_send_signal(self, message: Message, record: MessageRecord,
                        bus: Optional[VirtualBus], ctx: FireContext,
                        effect: Effect) -> None:
        assert isinstance(effect, SendSignal) and bus is not None
        signal = effect.signal
        if signal is Signal.HACK:
            # Acceptance: the Hack walks back from the last hop.
            bus.signal_position = len(bus.hops) - 1
        elif signal is Signal.NACK:
            # Refusal: the Nack's walk releases segments as it goes.
            bus.signal_position = len(bus.hops) - 1
            bus.released_from = len(bus.hops)
            self._stall_ticks.pop(bus.bus_id, None)
            # Leaving EXTENDING relaxes compaction's head rule (D9) at the
            # head segment without any occupancy change; tell the grid so
            # the incremental candidate search re-examines that
            # neighbourhood.
            if bus.hops:
                self.grid.touch(bus.segment_index(len(bus.hops) - 1))
        elif signal is Signal.FACK:
            # Delivery: the Fack's walk releases segments as it goes.
            bus.signal_position = len(bus.hops) - 1
            bus.released_from = len(bus.hops)
        else:  # Signal.FINAL — the FF chases the last data flit forward.
            bus.signal_position = 0

    def _fx_mark_established(self, message: Message, record: MessageRecord,
                             bus: Optional[VirtualBus], ctx: FireContext,
                             effect: Effect) -> None:
        assert bus is not None
        record.established_at = self._now()
        self.established += 1
        bus.data_sent = 0

    def _fx_mark_delivered(self, message: Message, record: MessageRecord,
                           bus: Optional[VirtualBus], ctx: FireContext,
                           effect: Effect) -> None:
        assert bus is not None
        record.delivered_at = self._now()
        self.delivered += 1
        self.flits_delivered += message.total_flits
        self._release_rx(bus, bus.destination)

    def _fx_release_endpoints(self, message: Message, record: MessageRecord,
                              bus: Optional[VirtualBus], ctx: FireContext,
                              effect: Effect) -> None:
        assert bus is not None
        self._tx_active[bus.source] -= 1
        self._note_ready(bus.source)
        for node in list(self._rx_holders.get(bus.bus_id, ())):
            self._release_rx(bus, node)
        self._rx_holders.pop(bus.bus_id, None)

    def _fx_mark_refused(self, message: Message, record: MessageRecord,
                         bus: Optional[VirtualBus], ctx: FireContext,
                         effect: Effect) -> None:
        assert bus is not None
        if self._trace_on:
            self._record("refused", message, bus=bus.bus_id)

    def _fx_complete_message(self, message: Message, record: MessageRecord,
                             bus: Optional[VirtualBus], ctx: FireContext,
                             effect: Effect) -> None:
        assert bus is not None
        record.completed_at = self._now()
        self.completed += 1
        if self._trace_on:
            self._record("complete", message, bus=bus.bus_id)
        if self._obs_on:
            self._h_complete.observe(record.completed_at
                                     - record.injected_at)
            self._h_retries.observe(record.retries)
            self._h_head_stalls.observe(record.head_stall_ticks)
            self._spans.event(message.message_id, self._now(),
                              "complete", retries=record.retries)
        if self.on_complete is not None:
            self.on_complete(record)

    def _fx_drop_bus(self, message: Message, record: MessageRecord,
                     bus: Optional[VirtualBus], ctx: FireContext,
                     effect: Effect) -> None:
        assert bus is not None
        del self.buses[bus.bus_id]
        self._stall_ticks.pop(bus.bus_id, None)

    def _fx_classify_retry(self, message: Message, record: MessageRecord,
                           bus: Optional[VirtualBus], ctx: FireContext,
                           effect: Effect) -> None:
        policy = self.config.retry
        decision = retry_decision(record, policy.max_retries)
        if decision is LifecycleEvent.RETRY_ARMED:
            # The retry policy's node budget is a second, node-wide bound:
            # once a source INC's lifetime retry total is spent, further
            # would-be retries abandon even below per-message max_retries.
            budget = policy.node_budget
            if budget is not None and \
                    self._node_retry_totals[message.source] >= budget:
                self.budget_abandoned += 1
                self._record("budget_exhausted", message,
                             node=message.source, budget=budget)
                decision = LifecycleEvent.ABANDON
        self._fire(message, decision)

    def _fx_arm_retry_timer(self, message: Message, record: MessageRecord,
                            bus: Optional[VirtualBus], ctx: FireContext,
                            effect: Effect) -> None:
        attempts = retry_attempts(record)
        record.retries += 1
        # backoff_floor is the number of attempts forgiven by a watchdog
        # reset_backoff() call: the exponent restarts from there.
        policy = self.config.retry
        delay = policy.delay * (
            policy.backoff ** max(0, attempts - record.backoff_floor - 1)
        )
        if self._rng is not None and policy.jitter > 0:
            delay += self._rng.uniform(0, policy.jitter * delay)
        self._awaiting_retry += 1
        self._awaiting_retry_by_node[message.source] += 1
        self._node_retry_totals[message.source] += 1
        if self._obs_on:
            self._spans.event(message.message_id, self._now(), "retry",
                              attempt=record.retries, delay=delay)
        self._schedule(delay, _RetryRequeue(self, message))

    def _fx_mark_abandoned(self, message: Message, record: MessageRecord,
                           bus: Optional[VirtualBus], ctx: FireContext,
                           effect: Effect) -> None:
        self.abandoned += 1
        record.abandoned = True
        self._record("abandon", message)
        if self._obs_on:
            self._spans.event(message.message_id, self._now(), "abandon",
                              retries=record.retries)

    def _fx_disarm_retry_timer(self, message: Message, record: MessageRecord,
                               bus: Optional[VirtualBus], ctx: FireContext,
                               effect: Effect) -> None:
        self._awaiting_retry -= 1
        self._awaiting_retry_by_node[message.source] -= 1

    def _fx_hurry_release(self, message: Message, record: MessageRecord,
                          bus: Optional[VirtualBus], ctx: FireContext,
                          effect: Effect) -> None:
        assert bus is not None
        while bus.bus_id in self.buses and bus.signal_position >= 0:
            self._release_step(bus)
        if bus.bus_id in self.buses:  # pragma: no cover - defensive
            self._fire(message, LifecycleEvent.RELEASE_DONE, bus=bus)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _validate(self, message: Message) -> None:
        nodes = self.config.nodes
        if not (0 <= message.source < nodes and 0 <= message.destination < nodes):
            raise RoutingError(
                f"message {message.message_id}: endpoints "
                f"({message.source}, {message.destination}) outside 0..{nodes - 1}"
            )

    def _record(self, kind: str, message: Message, **details: object) -> None:
        if self._trace_on:
            self.trace.record(self._now(), kind, f"msg{message.message_id}",
                              **details)

    def receiver_busy(self, node: int) -> bool:
        """True while every RX port at ``node`` is claimed."""
        return self._rx_active[node] >= self.config.rx_ports


def format_census(census: Dict[str, int]) -> str:
    """Render a lifecycle census as ``state=count`` pairs for reports."""
    if not census:
        return "lifecycle: idle"
    return "lifecycle: " + " ".join(
        f"{name}={count}" for name, count in census.items())


class RoutingCensus:
    """Picklable livelock-diagnostics provider: the lifecycle census.

    Registered with :meth:`repro.sim.kernel.Simulator.add_diagnostic` so
    a kernel livelock report describes outstanding messages in the
    lifecycle-FSM vocabulary (a class, not a closure, so checkpointed
    simulators keep their diagnostics).
    """

    def __init__(self, engine: RoutingEngine) -> None:
        self._engine = engine

    def __call__(self) -> str:
        return format_census(self._engine.lifecycle_census())
