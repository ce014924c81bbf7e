"""Output-port status codes — paper Table 1 and Figures 6/7.

Each INC keeps a 3-bit register per output port describing which input
ports currently drive it.  With the output port at lane ``l``:

* bit 2 (value 4) — driven **from above**: input port ``l + 1``;
* bit 1 (value 2) — driven **straight**: input port ``l``;
* bit 0 (value 1) — driven **from below**: input port ``l - 1``.

Table 1 declares codes ``101`` and ``111`` illegal: an output may be driven
by two inputs only transiently during make-before-break, and a ±1 lane move
can only pair *adjacent* sources (above+straight or below+straight), never
above+below.

This module also encodes the **four legal move conditions** of Figure 7 as
:func:`move_sequences`: given where the virtual bus enters the upstream INC
and leaves the downstream INC, it returns the exact intermediate register
sequences the hardware walks through, which the invariant tests check
against Table 1.  :func:`move_condition` is the form the engines call per
move: the walk depends only on where the bus enters and leaves relative
to the moving lane, so each of the nine relative classes is walked once.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.errors import ProtocolError

#: Number of distinct register values (3 bits).
CODE_SPACE = 8

#: Bit masks, named after the paper's vocabulary.
FROM_ABOVE = 0b100
STRAIGHT = 0b010
FROM_BELOW = 0b001

#: The six legal codes of Table 1 (``101`` and ``111`` are "not allowed").
LEGAL_CODES = frozenset({0b000, 0b001, 0b010, 0b011, 0b100, 0b110})

#: Table 1 wording, keyed by code.
CODE_MEANINGS = {
    0b000: "Bus is unused",
    0b001: "Port receives from below",
    0b010: "Port receives straight",
    0b011: "Port receives from below and straight",
    0b100: "Port receives from above",
    0b101: "Not allowed",
    0b110: "Port receives from above and straight",
    0b111: "Not allowed",
}


def is_legal(code: int) -> bool:
    """True iff ``code`` is one of Table 1's six permitted values."""
    return code in LEGAL_CODES


def sources(code: int, output_lane: int) -> set[int]:
    """Input lanes driving an output port with the given register value."""
    if not is_legal(code):
        raise ProtocolError(
            f"status code {code:03b} on output lane {output_lane} is not allowed"
        )
    feeding = set()
    if code & FROM_ABOVE:
        feeding.add(output_lane + 1)
    if code & STRAIGHT:
        feeding.add(output_lane)
    if code & FROM_BELOW:
        feeding.add(output_lane - 1)
    return feeding


def code_for(input_lane: int, output_lane: int) -> int:
    """Single-source register value for ``input_lane`` driving ``output_lane``.

    Raises:
        ProtocolError: if the lanes are more than one apart — the INC
            crossbar physically cannot make that connection.
    """
    delta = input_lane - output_lane
    if delta == 1:
        return FROM_ABOVE
    if delta == 0:
        return STRAIGHT
    if delta == -1:
        return FROM_BELOW
    raise ProtocolError(
        f"input lane {input_lane} cannot drive output lane {output_lane}: "
        "INC ports connect only within +/-1"
    )


class PortHealth(enum.Enum):
    """Health of one physical bus segment / output port (fault model F1).

    The paper assumes fault-free hardware; the fault-injection subsystem
    (:mod:`repro.faults`) extends Table 1's vocabulary with an orthogonal
    health axis.  ``DYING`` announces a scheduled outage: the segment still
    carries its current virtual bus but accepts no new claims, giving the
    compaction protocol a make-before-break window to migrate the bus off.
    ``DEAD`` means the wire is gone; any remaining occupant is torn down.
    """

    OK = "ok"
    DYING = "dying"
    DEAD = "dead"


#: Health states in which a segment cannot accept a *new* claim.
FAULTY_HEALTH = frozenset({PortHealth.DYING, PortHealth.DEAD})


class HopSide(enum.Enum):
    """Which end of a moving segment a port sequence belongs to."""

    UPSTREAM = "upstream"      # output side of INC i (drives the segment)
    DOWNSTREAM = "downstream"  # input side of INC i+1 (consumes the segment)


@dataclass(frozen=True)
class PortSequence:
    """The register trajectory of one output port during one lane move.

    ``codes`` always has three entries: before, make (parallel paths), and
    after break.  ``lane`` is the output port's lane at the owning INC.
    """

    side: HopSide
    lane: int
    codes: tuple[int, int, int]

    def validates(self) -> bool:
        """True iff every step of the trajectory is a Table 1 legal code."""
        return all(is_legal(code) for code in self.codes)


def move_sequences(
    upstream_in: int | None,
    lane: int,
    downstream_out: int | None,
) -> list[PortSequence]:
    """Register sequences for moving a segment from ``lane`` to ``lane - 1``.

    Args:
        upstream_in: lane on which the virtual bus *enters* the upstream INC,
            or ``None`` when that INC is the message source (PE-driven).
        lane: current lane of the moving segment (must be >= 1).
        downstream_out: lane on which the bus *leaves* the downstream INC,
            or ``None`` when that INC is the destination (PE-consumed).

    Returns:
        One :class:`PortSequence` per affected output port (up to four).

    Raises:
        ProtocolError: if the configuration violates Figure 7's conditions,
            i.e. ``upstream_in``/``downstream_out`` outside ``{lane-1, lane}``.
    """
    if lane < 1:
        raise ProtocolError("cannot move below lane 0")
    sequences: list[PortSequence] = []

    if upstream_in is not None:
        if upstream_in not in (lane - 1, lane):
            raise ProtocolError(
                f"move from lane {lane} illegal: bus enters upstream INC at "
                f"lane {upstream_in}, outside {{{lane - 1}, {lane}}} "
                "(Figure 7 condition)"
            )
        old_code = code_for(upstream_in, lane)
        new_code = code_for(upstream_in, lane - 1)
        # Output `lane-1` is made before output `lane` is broken.
        sequences.append(
            PortSequence(HopSide.UPSTREAM, lane - 1, (0b000, new_code, new_code))
        )
        sequences.append(
            PortSequence(HopSide.UPSTREAM, lane, (old_code, old_code, 0b000))
        )
    # Source INC: the PE drives whichever output lane the bus occupies; no
    # crossbar registers change on the upstream side.

    if downstream_out is not None:
        if downstream_out not in (lane - 1, lane):
            raise ProtocolError(
                f"move from lane {lane} illegal: bus leaves downstream INC at "
                f"lane {downstream_out}, outside {{{lane - 1}, {lane}}} "
                "(Figure 7 condition)"
            )
        old_code = code_for(lane, downstream_out)
        new_code = code_for(lane - 1, downstream_out)
        make_code = old_code | new_code
        if not is_legal(make_code):
            raise ProtocolError(
                f"make-before-break superposition {make_code:03b} is illegal"
            )
        sequences.append(
            PortSequence(
                HopSide.DOWNSTREAM, downstream_out, (old_code, make_code, new_code)
            )
        )
    # Destination INC: the PE reads the input lane directly.
    return sequences


def move_sequences_up(
    upstream_in: int | None,
    lane: int,
    downstream_out: int | None,
    lanes: int,
) -> list[PortSequence]:
    """Register sequences for an *evacuation* move from ``lane`` to ``lane + 1``.

    Compaction proper only ever moves downward; the fault-injection layer
    additionally needs the mirror move so a bus trapped on a dying lane-0
    segment (or one whose downward neighbour is also dying) can escape
    upward.  The INC crossbar is symmetric in ±1, so the legality argument
    of Figure 7 applies verbatim with the lane axis flipped.

    Raises:
        ProtocolError: if ``lane + 1`` is outside the lane stack or the
            entry/exit lanes violate the mirrored Figure 7 conditions.
    """
    if lane + 1 >= lanes:
        raise ProtocolError(f"cannot evacuate above lane {lanes - 1}")
    sequences: list[PortSequence] = []

    if upstream_in is not None:
        if upstream_in not in (lane, lane + 1):
            raise ProtocolError(
                f"evacuation from lane {lane} illegal: bus enters upstream "
                f"INC at lane {upstream_in}, outside {{{lane}, {lane + 1}}}"
            )
        old_code = code_for(upstream_in, lane)
        new_code = code_for(upstream_in, lane + 1)
        sequences.append(
            PortSequence(HopSide.UPSTREAM, lane + 1, (0b000, new_code, new_code))
        )
        sequences.append(
            PortSequence(HopSide.UPSTREAM, lane, (old_code, old_code, 0b000))
        )

    if downstream_out is not None:
        if downstream_out not in (lane, lane + 1):
            raise ProtocolError(
                f"evacuation from lane {lane} illegal: bus leaves downstream "
                f"INC at lane {downstream_out}, outside {{{lane}, {lane + 1}}}"
            )
        old_code = code_for(lane, downstream_out)
        new_code = code_for(lane + 1, downstream_out)
        make_code = old_code | new_code
        if not is_legal(make_code):
            raise ProtocolError(
                f"make-before-break superposition {make_code:03b} is illegal"
            )
        sequences.append(
            PortSequence(
                HopSide.DOWNSTREAM, downstream_out, (old_code, make_code, new_code)
            )
        )
    return sequences


def classify_condition(upstream_in: int | None, lane: int,
                       downstream_out: int | None) -> str:
    """Name which of Figure 7's four conditions a move instance exercises.

    Source/destination endpoints count as the *straight* flavour (the PE can
    attach to any lane, which is strictly more permissive).
    """
    up = "straight" if upstream_in in (None, lane) else "below"
    down = "straight" if downstream_out in (None, lane) else "below"
    return f"upstream-{up}/downstream-{down}"


#: All condition names :func:`classify_condition` can produce — exactly four,
#: matching Figure 7.
ALL_CONDITIONS = (
    "upstream-straight/downstream-straight",
    "upstream-straight/downstream-below",
    "upstream-below/downstream-straight",
    "upstream-below/downstream-below",
)


def move_condition(upstream_in: int | None, lane: int,
                   downstream_out: int | None) -> str:
    """Check a move from ``lane`` to ``lane - 1`` against Figure 7 and name it.

    The answer of :func:`move_sequences` plus :meth:`PortSequence.validates`
    for the move, computed once per relative class ``(upstream_in - lane,
    downstream_out - lane)``.  Returns the :func:`classify_condition` name.

    Raises:
        ProtocolError: wherever :func:`move_sequences` raises or a step of
            its walk is not a Table 1 code.  The diagnostic names the real
            lanes; failures are not cached.
    """
    if lane < 1:
        raise ProtocolError("cannot move below lane 0")
    try:
        return _relative_move_condition(
            None if upstream_in is None else upstream_in - lane,
            None if downstream_out is None else downstream_out - lane)
    except ProtocolError:
        # Walk again at the real lanes, so the raised diagnostic names them.
        move_sequences(upstream_in, lane, downstream_out)
        raise


@functools.cache
def _relative_move_condition(upstream: int | None,
                             downstream: int | None) -> str:
    """:func:`move_condition` for a move from lane 1, by offsets from it.

    The walk reads lanes only through their offsets from the moving lane,
    so lane 1 stands for every lane that can move.
    """
    lane = 1
    upstream_in = None if upstream is None else lane + upstream
    downstream_out = None if downstream is None else lane + downstream
    for sequence in move_sequences(upstream_in, lane, downstream_out):
        if not sequence.validates():
            raise ProtocolError(
                f"illegal register sequence {sequence.codes} on the "
                f"{sequence.side.value} side of a lane move"
            )
    return classify_condition(upstream_in, lane, downstream_out)
