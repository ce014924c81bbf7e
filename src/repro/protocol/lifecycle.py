"""Declarative per-message lifecycle FSM — paper Sections 2.2/2.3.

The HF/Hack/Dack/Fack/Nack protocol is expressed here as a transition
table: every legal ``(state, event)`` pair maps to an :class:`Arc`
naming the successor state and a tuple of *effects*.  Effects are a
narrow, static vocabulary of frozen dataclasses; they carry no runtime
values (per-transition context such as the claimed lane travels through
the interpreter's ``ctx`` dict).  :class:`repro.core.routing.RoutingEngine`
owns the interpreter (``RoutingEngine._fire``): it looks up the arc,
updates the lifecycle state and the bus phase, then executes each effect
via a handler method.  An event fired in a state with no declared arc is
a :class:`~repro.errors.ProtocolError` — the table is therefore also a
runtime conformance check, and :mod:`repro.protocol.explore` enumerates
it exhaustively offline.

State map (``→`` = the happy path, branches named at the side)::

    NEW → QUEUED → INJECTED → EXTENDING → ESTABLISHED → STREAMING
           ↑  |        (refuse/timeout/fault/watchdog)      |
           |  └→ RETRY_PENDING ← NACKED ←───────────────────┤
           |       |       ↘ ABANDONED                  DRAINING
           └── RETRY                                        |
    NEW → DEFERRED → QUEUED          DELIVERED ← RELEASING ←┘
    NEW → SHED

``ESTABLISHED`` covers the Hack's walk back to the source
(:class:`~repro.core.virtual_bus.BusPhase` ``ACK_RETURN``); streaming
starts when the Hack arrives (``HACK_AT_SOURCE``).  ``NACKED`` is the
Nack's release walk, ``RELEASING`` the Fack's.  ``INJECTED`` is
transient within the injection tick: the header has claimed the source
segment but not yet entered the extension pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.flits import MessageRecord
    from repro.core.virtual_bus import BusPhase


class LifecycleState(enum.Enum):
    """Explicit per-message protocol states (one per message, not per bus).

    Members are singletons compared by identity, so they hash by
    identity in C: every table lookup keyed by them (``LIFECYCLE``, the
    compiled arcs, the phase map) then runs no Python frame.  A member's
    hash is read for lookups only; :class:`enum.Enum`'s own hash of the
    name was randomized per process anyway.
    """

    __hash__ = object.__hash__  # type: ignore[assignment]

    NEW = "new"                      # record created, admission pending
    QUEUED = "queued"                # waiting in the source PE's queue
    DEFERRED = "deferred"            # parked by admission control (S2)
    SHED = "shed"                    # dropped by admission control (terminal)
    INJECTED = "injected"            # header claimed the source segment
    EXTENDING = "extending"          # header advancing segment by segment
    ESTABLISHED = "established"      # accepted; Hack walking back (ACK_RETURN)
    STREAMING = "streaming"          # data flits flowing source -> destination
    DRAINING = "draining"            # FF in flight behind the last data flit
    RELEASING = "releasing"          # Fack walking back, freeing segments
    NACKED = "nacked"                # Nack walking back, freeing segments
    RETRY_PENDING = "retry_pending"  # refusal classified this instant
    RETRY = "retry"                  # backoff timer armed
    DELIVERED = "delivered"          # Fack returned, all ports freed (terminal)
    ABANDONED = "abandoned"          # max_retries exhausted (terminal)


class LifecycleEvent(enum.Enum):
    """Stimuli that drive the lifecycle FSM (hashed by identity, as
    :class:`LifecycleState` is)."""

    __hash__ = object.__hash__  # type: ignore[assignment]

    ADMIT = "admit"                    # admission verdict: queue it
    DEFER = "defer"                    # admission verdict: park it
    SHED = "shed"                      # admission verdict: drop it
    ADMIT_DEFERRED = "admit_deferred"  # parked request released to the queue
    INJECT = "inject"                  # top-lane segment claimed at the source
    EXTEND = "extend"                  # header advanced one segment
    TAP_JOIN = "tap_join"              # multicast tap reserved its RX port
    ACCEPT = "accept"                  # destination reserved its RX port
    REFUSE = "refuse"                  # busy tap/destination Nacked the header
    HEADER_TIMEOUT = "header_timeout"  # stalled past header_timeout (D8)
    FAULT_NACK = "fault_nack"          # dead column blocks any path (F3)
    FAULT_KILL = "fault_kill"          # DEAD segment under a live bus (F4)
    FORCE_TEARDOWN = "force_teardown"  # watchdog recovery action
    HACK_AT_SOURCE = "hack_at_source"  # Hack finished its walk: circuit up
    FINAL_FLIT = "final_flit"          # last data flit sent; FF follows
    DELIVER = "deliver"                # FF crossed the last hop
    RELEASE_DONE = "release_done"      # reverse walk freed the final segment
    RETRY_ARMED = "retry_armed"        # classifier: schedule a backoff timer
    ABANDON = "abandon"                # classifier: retry budget exhausted
    RETRY_TIMER = "retry_timer"        # backoff timer fired


class RefusalKind(enum.Enum):
    """Why a request bounced — the single retry/refusal classification."""

    NACK = "nack"                # busy destination or tap (paper Nack)
    TIMEOUT = "timeout"          # header stalled past header_timeout (D8)
    FAULT_NACK = "fault_nack"    # dead column: no path can exist (F3)
    FAULT_KILL = "fault_kill"    # bus destroyed under a live transfer (F4)
    WATCHDOG = "watchdog"        # supervision forced a teardown


class Signal(enum.Enum):
    """Reverse/forward wire signals an effect can launch."""

    HACK = "hack"    # acceptance ack, destination -> source
    NACK = "nack"    # refusal, release walk destination -> source
    FACK = "fack"    # final ack, release walk destination -> source
    FINAL = "final"  # final flit (FF), source -> destination


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Effect:
    """Base class for transition effects.

    ``handler`` names the :class:`~repro.core.routing.RoutingEngine`
    method that executes the effect; handlers receive
    ``(message, record, bus, ctx, effect)``.  Effect instances are
    static table data — anything transition-specific flows through
    ``ctx``.
    """

    handler: ClassVar[str] = ""


@dataclass(frozen=True)
class Enqueue(Effect):
    """Append the message to its source PE queue."""

    handler: ClassVar[str] = "_fx_enqueue"


@dataclass(frozen=True)
class Park(Effect):
    """Hold the message in the per-INC deferred queue (admission S2)."""

    handler: ClassVar[str] = "_fx_park"


@dataclass(frozen=True)
class MarkShed(Effect):
    """Drop the message permanently (admission shed policy)."""

    handler: ClassVar[str] = "_fx_mark_shed"


@dataclass(frozen=True)
class OpenBus(Effect):
    """Create the virtual bus and claim the insertion segment.

    Reads ``ctx['lane']``; publishes the new bus as ``ctx['bus']``.
    """

    handler: ClassVar[str] = "_fx_open_bus"


@dataclass(frozen=True)
class ReserveLane(Effect):
    """Claim the next segment for the advancing header.

    Reads ``ctx['segment']`` and ``ctx['lane']``.
    """

    handler: ClassVar[str] = "_fx_reserve_lane"


@dataclass(frozen=True)
class NoteRefusal(Effect):
    """Book a refusal of ``kind`` on the record and engine counters."""

    kind: RefusalKind
    handler: ClassVar[str] = "_fx_note_refusal"


@dataclass(frozen=True)
class SendSignal(Effect):
    """Launch a protocol signal along the virtual bus."""

    signal: Signal
    handler: ClassVar[str] = "_fx_send_signal"


@dataclass(frozen=True)
class MarkEstablished(Effect):
    """The Hack reached the source: the circuit is up, streaming starts."""

    handler: ClassVar[str] = "_fx_mark_established"


@dataclass(frozen=True)
class MarkDelivered(Effect):
    """The FF crossed the last hop: all data is at the destination."""

    handler: ClassVar[str] = "_fx_mark_delivered"


@dataclass(frozen=True)
class ReleaseEndpoints(Effect):
    """Free the TX port and any remaining RX reservations."""

    handler: ClassVar[str] = "_fx_release_endpoints"


@dataclass(frozen=True)
class MarkRefused(Effect):
    """Trace the bus's refusal once its release walk finishes."""

    handler: ClassVar[str] = "_fx_mark_refused"


@dataclass(frozen=True)
class CompleteMessage(Effect):
    """Stamp completion, fire observability and the on_complete chain."""

    handler: ClassVar[str] = "_fx_complete_message"


@dataclass(frozen=True)
class DropBus(Effect):
    """Remove the (fully released) bus from the live set."""

    handler: ClassVar[str] = "_fx_drop_bus"


@dataclass(frozen=True)
class ClassifyRetry(Effect):
    """Run the retry classifier and fire RETRY_ARMED or ABANDON."""

    handler: ClassVar[str] = "_fx_classify_retry"


@dataclass(frozen=True)
class ArmRetryTimer(Effect):
    """Schedule the exponential-backoff retry timer."""

    handler: ClassVar[str] = "_fx_arm_retry_timer"


@dataclass(frozen=True)
class MarkAbandoned(Effect):
    """Give up on the message: retry budget exhausted."""

    handler: ClassVar[str] = "_fx_mark_abandoned"


@dataclass(frozen=True)
class DisarmRetryTimer(Effect):
    """Book the retry timer's expiry (awaiting-retry counters)."""

    handler: ClassVar[str] = "_fx_disarm_retry_timer"


@dataclass(frozen=True)
class HurryRelease(Effect):
    """Fault shortcut (F4): run the whole release walk this instant."""

    handler: ClassVar[str] = "_fx_hurry_release"


# ---------------------------------------------------------------------------
# The transition table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Arc:
    """One legal transition: successor state plus its effects, in order."""

    target: LifecycleState
    effects: Tuple[Effect, ...] = ()


LifecycleTable = Mapping[Tuple[LifecycleState, LifecycleEvent], Arc]

_S = LifecycleState
_E = LifecycleEvent
_K = RefusalKind

#: Effects shared by every path that turns a live bus into a Nack walk.
_NACK_WALK = SendSignal(Signal.NACK)

LIFECYCLE: Dict[Tuple[LifecycleState, LifecycleEvent], Arc] = {
    # --- admission (submit / deferred release) -------------------------
    (_S.NEW, _E.ADMIT): Arc(_S.QUEUED, (Enqueue(),)),
    (_S.NEW, _E.DEFER): Arc(_S.DEFERRED, (Park(),)),
    (_S.NEW, _E.SHED): Arc(_S.SHED, (MarkShed(),)),
    (_S.DEFERRED, _E.ADMIT_DEFERRED): Arc(_S.QUEUED, (Enqueue(),)),
    # --- injection -----------------------------------------------------
    (_S.QUEUED, _E.INJECT): Arc(_S.INJECTED, (OpenBus(),)),
    (_S.QUEUED, _E.FAULT_NACK): Arc(
        _S.RETRY_PENDING, (NoteRefusal(_K.FAULT_NACK), ClassifyRetry())),
    # INJECTED is transient within the injection tick: the header either
    # resolves immediately (1-hop accept/refuse) or enters the pipeline.
    (_S.INJECTED, _E.EXTEND): Arc(_S.EXTENDING),
    (_S.INJECTED, _E.TAP_JOIN): Arc(_S.INJECTED),
    (_S.INJECTED, _E.ACCEPT): Arc(
        _S.ESTABLISHED, (SendSignal(Signal.HACK),)),
    (_S.INJECTED, _E.REFUSE): Arc(
        _S.NACKED, (NoteRefusal(_K.NACK), _NACK_WALK)),
    # --- header extension ----------------------------------------------
    (_S.EXTENDING, _E.EXTEND): Arc(_S.EXTENDING, (ReserveLane(),)),
    (_S.EXTENDING, _E.TAP_JOIN): Arc(_S.EXTENDING),
    (_S.EXTENDING, _E.ACCEPT): Arc(
        _S.ESTABLISHED, (SendSignal(Signal.HACK),)),
    (_S.EXTENDING, _E.REFUSE): Arc(
        _S.NACKED, (NoteRefusal(_K.NACK), _NACK_WALK)),
    (_S.EXTENDING, _E.HEADER_TIMEOUT): Arc(
        _S.NACKED, (NoteRefusal(_K.TIMEOUT), _NACK_WALK)),
    (_S.EXTENDING, _E.FAULT_NACK): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_NACK), _NACK_WALK)),
    (_S.EXTENDING, _E.FORCE_TEARDOWN): Arc(
        _S.NACKED, (NoteRefusal(_K.WATCHDOG), _NACK_WALK)),
    (_S.EXTENDING, _E.FAULT_KILL): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_KILL), _NACK_WALK, HurryRelease())),
    # --- acceptance and streaming --------------------------------------
    (_S.ESTABLISHED, _E.HACK_AT_SOURCE): Arc(
        _S.STREAMING, (MarkEstablished(),)),
    (_S.ESTABLISHED, _E.FORCE_TEARDOWN): Arc(
        _S.NACKED, (NoteRefusal(_K.WATCHDOG), _NACK_WALK)),
    (_S.ESTABLISHED, _E.FAULT_KILL): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_KILL), _NACK_WALK, HurryRelease())),
    (_S.STREAMING, _E.FINAL_FLIT): Arc(
        _S.DRAINING, (SendSignal(Signal.FINAL),)),
    (_S.STREAMING, _E.FORCE_TEARDOWN): Arc(
        _S.NACKED, (NoteRefusal(_K.WATCHDOG), _NACK_WALK)),
    (_S.STREAMING, _E.FAULT_KILL): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_KILL), _NACK_WALK, HurryRelease())),
    (_S.DRAINING, _E.DELIVER): Arc(
        _S.RELEASING, (MarkDelivered(), SendSignal(Signal.FACK))),
    (_S.DRAINING, _E.FORCE_TEARDOWN): Arc(
        _S.NACKED, (NoteRefusal(_K.WATCHDOG), _NACK_WALK)),
    (_S.DRAINING, _E.FAULT_KILL): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_KILL), _NACK_WALK, HurryRelease())),
    # --- release walks --------------------------------------------------
    (_S.RELEASING, _E.RELEASE_DONE): Arc(
        _S.DELIVERED, (ReleaseEndpoints(), CompleteMessage(), DropBus())),
    # Data already delivered: the fault only shortcuts the Fack walk.
    (_S.RELEASING, _E.FAULT_KILL): Arc(_S.RELEASING, (HurryRelease(),)),
    (_S.NACKED, _E.RELEASE_DONE): Arc(
        _S.RETRY_PENDING,
        (ReleaseEndpoints(), MarkRefused(), ClassifyRetry(), DropBus())),
    # Already Nack-walking when the fault hit: count the kill (the data
    # was not delivered), then shortcut the remaining walk.
    (_S.NACKED, _E.FAULT_KILL): Arc(
        _S.NACKED, (NoteRefusal(_K.FAULT_KILL), HurryRelease())),
    # --- retry classification -------------------------------------------
    (_S.RETRY_PENDING, _E.RETRY_ARMED): Arc(_S.RETRY, (ArmRetryTimer(),)),
    (_S.RETRY_PENDING, _E.ABANDON): Arc(_S.ABANDONED, (MarkAbandoned(),)),
    (_S.RETRY, _E.RETRY_TIMER): Arc(
        _S.QUEUED, (DisarmRetryTimer(), Enqueue())),
}

#: Terminal states: no outgoing arcs, the message's journey is over.
TERMINAL_STATES = frozenset(
    {_S.SHED, _S.DELIVERED, _S.ABANDONED}
)

#: Bus phase implied by each lifecycle state, for states that own a live
#: (or just-finished) virtual bus.  The interpreter keeps ``bus.phase``
#: in lock-step with the lifecycle so the rest of the system (compaction
#: D9 head rule, watchdog progress signatures, renderers, tests) keeps
#: reading the phase vocabulary it always has.  Values are
#: :class:`~repro.core.virtual_bus.BusPhase` *names* (their ``.value``
#: strings): this module deliberately imports nothing from
#: :mod:`repro.core` at runtime, so the table stays importable from any
#: layer without a cycle.
PHASE_NAME_OF_STATE: Dict[LifecycleState, str] = {
    _S.INJECTED: "extending",
    _S.EXTENDING: "extending",
    _S.ESTABLISHED: "ack_return",
    _S.STREAMING: "streaming",
    _S.DRAINING: "draining",
    _S.RELEASING: "teardown",
    _S.NACKED: "nack_return",
    _S.RETRY_PENDING: "refused",
    _S.DELIVERED: "done",
}

#: Inverse view: the lifecycle state a live bus phase corresponds to.
#: Used to express watchdog incidents, drain errors and livelock
#: diagnostics in the one lifecycle vocabulary (INJECTED is transient
#: within a tick, so EXTENDING is the unique steady-state inverse).
STATE_OF_PHASE_NAME: Dict[str, LifecycleState] = {
    "extending": _S.EXTENDING,
    "ack_return": _S.ESTABLISHED,
    "streaming": _S.STREAMING,
    "draining": _S.DRAINING,
    "teardown": _S.RELEASING,
    "nack_return": _S.NACKED,
    "refused": _S.RETRY_PENDING,
    "done": _S.DELIVERED,
}


def lifecycle_name(phase: Union["BusPhase", str]) -> str:
    """Lifecycle-vocabulary name for a bus phase (for reports/incidents)."""
    value = phase if isinstance(phase, str) else phase.value
    return STATE_OF_PHASE_NAME[value].value


def has_arc(state: LifecycleState, event: LifecycleEvent) -> bool:
    """True when the table declares a transition for ``(state, event)``."""
    return (state, event) in LIFECYCLE


# ---------------------------------------------------------------------------
# Refusal / retry classification (single source of truth)
# ---------------------------------------------------------------------------
def retry_attempts(record: "MessageRecord") -> int:
    """Attempts counted by the exponential backoff (and its floor).

    Every refusal kind that schedules a retry contributes; watchdog
    teardowns count through ``nacks`` (they are booked as Nacks).
    """
    return (record.nacks + record.fault_nacks + record.fault_kills
            + record.retries)


def retry_decision(record: "MessageRecord",
                   max_retries: Optional[int]) -> LifecycleEvent:
    """Classify a refused message: retry again, or give up.

    The budget check reads ``record.retries`` *before* the retry being
    classified is booked, so ``max_retries = n`` allows exactly ``n``
    re-queues after the initial attempt.
    """
    if max_retries is not None and record.retries >= max_retries:
        return LifecycleEvent.ABANDON
    return LifecycleEvent.RETRY_ARMED


def note_refusal(record: "MessageRecord", kind: RefusalKind,
                 now: float) -> None:
    """Book a refusal of ``kind`` on the message record.

    Record-side bookkeeping only; the engine adds its aggregate counters
    in the ``NoteRefusal`` effect handler.  A timeout deliberately books
    nothing on the record (D8: timeouts are an engine-health signal, not
    a property of the message).
    """
    if kind is RefusalKind.NACK or kind is RefusalKind.WATCHDOG:
        record.nacks += 1
    elif kind is RefusalKind.FAULT_NACK:
        record.fault_nacks += 1
        if record.first_fault_at is None:
            record.first_fault_at = now
    elif kind is RefusalKind.FAULT_KILL:
        record.fault_kills += 1
        if record.first_fault_at is None:
            record.first_fault_at = now
