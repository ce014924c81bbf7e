"""Compile the declarative lifecycle table into dense integer matrices.

The per-message lifecycle FSM (:data:`repro.protocol.lifecycle.LIFECYCLE`)
becomes a ``(states, events)`` transition matrix plus a parallel matrix
of *effect-program* indices — every declared arc appears exactly once,
and every undeclared ``(state, event)`` cell holds the :data:`TRAP`
sentinel so firing it raises :class:`~repro.errors.ProtocolError`, the
same conformance check the event backend's interpreter performs.  The
batch backend models synchronous rings only, so the odd/even handshake
table has no compiled form; ``tests/protocol`` and the explorer check
the scalar rules-1-to-5 table.

Compilation happens once at engine startup; the matrices are plain data
and every entry is traceable back to one table row (asserted by the
``tests/batch`` compiler suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.protocol.lifecycle import (
    LIFECYCLE,
    TERMINAL_STATES,
    Effect,
    LifecycleEvent,
    LifecycleState,
)

#: Sentinel for an undeclared transition (and for "no effect program").
TRAP: int = -1

#: Lifecycle states / events in enum-declaration order; the row/column
#: bases of the compiled matrices.
STATES: Tuple[LifecycleState, ...] = tuple(LifecycleState)
EVENTS: Tuple[LifecycleEvent, ...] = tuple(LifecycleEvent)

STATE_CODE = {state: index for index, state in enumerate(STATES)}
EVENT_CODE = {event: index for index, event in enumerate(EVENTS)}

#: Codes of the terminal lifecycle states (no outgoing arcs).
TERMINAL_CODES = frozenset(STATE_CODE[state] for state in TERMINAL_STATES)


@dataclass(frozen=True)
class CompiledLifecycle:
    """The lifecycle table as dense integer matrices.

    Attributes:
        transition: ``(S, E)`` int16 matrix of successor state codes;
            :data:`TRAP` marks an undeclared transition.
        program: ``(S, E)`` int16 matrix of indices into ``programs``;
            :data:`TRAP` exactly where ``transition`` is trapped.
        programs: the deduplicated effect tuples, in first-use order
            (table iteration order).  ``programs[program[s, e]]`` is the
            effect sequence of arc ``(s, e)``.
    """

    transition: np.ndarray
    program: np.ndarray
    programs: Tuple[Tuple[Effect, ...], ...]

    def target(self, state: int, event: int) -> int:
        """Successor state code, raising on an undeclared transition."""
        code = int(self.transition[state, event])
        if code == TRAP:
            raise ProtocolError(
                f"undeclared lifecycle transition "
                f"({STATES[state].value}, {EVENTS[event].value})"
            )
        return code


def compile_lifecycle() -> CompiledLifecycle:
    """Build the transition/effect matrices from the declarative table."""
    transition = np.full((len(STATES), len(EVENTS)), TRAP, dtype=np.int16)
    program = np.full((len(STATES), len(EVENTS)), TRAP, dtype=np.int16)
    programs: list[Tuple[Effect, ...]] = []
    seen: dict[Tuple[Effect, ...], int] = {}
    for (state, event), arc in LIFECYCLE.items():
        row = STATE_CODE[state]
        column = EVENT_CODE[event]
        if transition[row, column] != TRAP:  # pragma: no cover - table bug
            raise ProtocolError(
                f"duplicate arc ({state.value}, {event.value}) in LIFECYCLE"
            )
        transition[row, column] = STATE_CODE[arc.target]
        index = seen.get(arc.effects)
        if index is None:
            index = len(programs)
            seen[arc.effects] = index
            programs.append(arc.effects)
        program[row, column] = index
    transition.setflags(write=False)
    program.setflags(write=False)
    return CompiledLifecycle(transition, program, tuple(programs))
