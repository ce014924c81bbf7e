"""Virtual buses: the channels the routing protocol draws through the RMB.

A virtual bus is the chain of physical segments currently carrying one
message.  Its *hops* list runs from the source INC towards the head; hop
``j`` is segment ``(source + j) mod N`` at some lane.  Compaction rewrites
lanes (downward only); the routing engine appends hops as the header
extends and trims them as the Fack/Nack front releases them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.derived import DerivedState
from repro.core.flits import Message, MessageRecord
from repro.errors import ProtocolError


class BusPhase(enum.Enum):
    """Lifecycle of a virtual bus (paper Section 2.2's protocol steps).

    Hashed by identity in C, as the lifecycle enums are: ``LIVE_PHASES``
    and the phase map look members up without a Python frame.
    """

    __hash__ = object.__hash__  # type: ignore[assignment]

    EXTENDING = "extending"        # HF travelling/stalled towards destination
    ACK_RETURN = "ack_return"      # Hack travelling back to the source
    STREAMING = "streaming"        # DFs flowing, FF not yet sent
    DRAINING = "draining"          # FF travelling to the destination
    TEARDOWN = "teardown"          # Fack travelling back, freeing segments
    NACK_RETURN = "nack_return"    # Nack travelling back, freeing segments
    DONE = "done"                  # completed successfully
    REFUSED = "refused"            # torn down after a Nack


#: Phases in which the bus still holds at least one segment.
LIVE_PHASES = frozenset({
    BusPhase.EXTENDING,
    BusPhase.ACK_RETURN,
    BusPhase.STREAMING,
    BusPhase.DRAINING,
    BusPhase.TEARDOWN,
    BusPhase.NACK_RETURN,
})


@dataclass
class VirtualBus(DerivedState):
    """One message's channel through the ring.

    Attributes:
        bus_id: unique id (also used as the grid occupant id).
        message: the message being carried.  Its endpoints and span are
            bound as ``source``, ``destination`` and ``span`` when the
            bus is built (derived state, DESIGN.md §9 P8), so whoever
            swaps the message calls :meth:`rebuild_derived`.
        record: lifecycle bookkeeping shared with the statistics module.
        hops: lane per hop, source side first.  ``hops[j]`` is the lane of
            segment ``(source + j) % N``.
        phase: current protocol phase.
        signal_position: meaning depends on phase —
            * ACK_RETURN / TEARDOWN / NACK_RETURN: hop index the reverse
              signal will process next (it walks towards index 0);
            * DRAINING: hop index the FF crosses next.
        data_sent: DFs already injected by the source (STREAMING phase).
        released_from: hops with index >= this have been freed during
            teardown (the Fack walks from the head towards the source).
    """

    bus_id: int
    message: Message
    record: MessageRecord
    ring_size: int
    hops: list[int] = field(default_factory=list)
    phase: BusPhase = BusPhase.EXTENDING
    signal_position: int = 0
    data_sent: int = 0
    released_from: Optional[int] = None

    _DERIVED = ("source", "destination", "span")

    def __post_init__(self) -> None:
        self.rebuild_derived()

    def rebuild_derived(self) -> None:
        """Bind the message's endpoints and ``span``, the number of
        segments a complete path needs (DESIGN.md §9 P10)."""
        message = self.message
        self.source = message.source
        self.destination = message.destination
        self.span = message.span(self.ring_size)

    @property
    def complete(self) -> bool:
        """True once the header has reached the destination INC."""
        return len(self.hops) == self.span

    @property
    def alive(self) -> bool:
        return self.phase in LIVE_PHASES

    def segment_index(self, hop: int) -> int:
        """Ring segment index of hop ``hop``."""
        return (self.source + hop) % self.ring_size

    def hop_of_segment(self, segment: int) -> Optional[int]:
        """Inverse of :meth:`segment_index` for currently drawn hops."""
        offset = (segment - self.source) % self.ring_size
        if offset < len(self.hops):
            return offset
        return None

    def held_hops(self) -> range:
        """Indices of hops whose segments are still claimed."""
        end = len(self.hops) if self.released_from is None else self.released_from
        return range(end)

    def upstream_lane(self, hop: int) -> Optional[int]:
        """Lane of the hop before ``hop``, or ``None`` at the source."""
        if hop == 0:
            return None
        return self.hops[hop - 1]

    def downstream_lane(self, hop: int) -> Optional[int]:
        """Lane of the hop after ``hop``.

        Returns ``None`` when ``hop`` is the head.  Note the head hop ends
        at the destination only when the path is complete; while extending,
        the head simply has no committed continuation yet — for compaction
        purposes both cases impose no downstream constraint, because the
        consuming INC forwards nothing yet (or hands the flits to its PE).
        """
        if hop >= len(self.hops) - 1:
            return None
        return self.hops[hop + 1]

    def validate_shape(self, lanes: int) -> None:
        """Structural invariants: lanes in range, adjacent hops within ±1.

        Raises:
            ProtocolError: on the first violated invariant.
        """
        for index, lane in enumerate(self.hops):
            if not 0 <= lane < lanes:
                raise ProtocolError(
                    f"bus {self.bus_id} hop {index} on illegal lane {lane}"
                )
        for index in range(1, len(self.hops)):
            if abs(self.hops[index] - self.hops[index - 1]) > 1:
                raise ProtocolError(
                    f"bus {self.bus_id} disconnected between hops "
                    f"{index - 1} (lane {self.hops[index - 1]}) and "
                    f"{index} (lane {self.hops[index]}): INC ports connect "
                    "only within +/-1"
                )
        if len(self.hops) > self.span:
            raise ProtocolError(
                f"bus {self.bus_id} overshoots its destination: "
                f"{len(self.hops)} hops for a span of {self.span}"
            )

    def describe(self) -> str:
        """Compact human-readable summary for traces and error messages."""
        lanes = ",".join(str(lane) for lane in self.hops)
        return (
            f"bus#{self.bus_id} {self.source}->{self.destination} "
            f"[{self.phase.value}] lanes=[{lanes}]"
        )
