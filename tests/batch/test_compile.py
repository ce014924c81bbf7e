"""Table-compiler unit tests: every matrix entry traces to one table row.

The compiled matrices are only trustworthy if they are a *faithful*
re-encoding of the lifecycle table: every declared arc must appear
exactly once, and every undeclared cell must hold the TRAP sentinel (and
raise, like the event backend's interpreter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.compile import (
    EVENT_CODE,
    EVENTS,
    STATE_CODE,
    STATES,
    TERMINAL_CODES,
    TRAP,
    compile_lifecycle,
)
from repro.errors import ProtocolError
from repro.protocol.lifecycle import LIFECYCLE, TERMINAL_STATES


@pytest.fixture(scope="module")
def lifecycle():
    return compile_lifecycle()


# ---------------------------------------------------------------------------
# Lifecycle matrix
# ---------------------------------------------------------------------------
class TestLifecycleMatrix:
    def test_every_declared_arc_appears_exactly_once(self, lifecycle):
        # Each table arc lands in its (state, event) cell...
        for (state, event), arc in LIFECYCLE.items():
            row, col = STATE_CODE[state], EVENT_CODE[event]
            assert lifecycle.transition[row, col] == STATE_CODE[arc.target]
        # ...and nothing else is populated: declared cells == table size.
        populated = int(np.count_nonzero(lifecycle.transition != TRAP))
        assert populated == len(LIFECYCLE)

    def test_undeclared_cells_trap(self, lifecycle):
        declared = {(STATE_CODE[s], EVENT_CODE[e]) for s, e in LIFECYCLE}
        for row in range(len(STATES)):
            for col in range(len(EVENTS)):
                if (row, col) in declared:
                    continue
                assert lifecycle.transition[row, col] == TRAP
                assert lifecycle.program[row, col] == TRAP

    def test_undeclared_transition_raises_like_the_interpreter(
            self, lifecycle):
        declared = {(STATE_CODE[s], EVENT_CODE[e]) for s, e in LIFECYCLE}
        checked = 0
        for row in range(len(STATES)):
            for col in range(len(EVENTS)):
                if (row, col) in declared:
                    continue
                with pytest.raises(ProtocolError) as excinfo:
                    lifecycle.target(row, col)
                # Same diagnostic shape as the event backend's
                # conformance check: names the state and event values.
                message = str(excinfo.value)
                assert "undeclared lifecycle transition" in message
                assert STATES[row].value in message
                assert EVENTS[col].value in message
                checked += 1
        assert checked > 0

    def test_declared_target_returns_successor_code(self, lifecycle):
        for (state, event), arc in LIFECYCLE.items():
            code = lifecycle.target(STATE_CODE[state], EVENT_CODE[event])
            assert STATES[code] is arc.target

    def test_effect_programs_match_table_rows(self, lifecycle):
        for (state, event), arc in LIFECYCLE.items():
            index = int(
                lifecycle.program[STATE_CODE[state], EVENT_CODE[event]])
            assert index != TRAP
            assert lifecycle.programs[index] == arc.effects

    def test_terminal_states_have_no_outgoing_arcs(self, lifecycle):
        assert TERMINAL_CODES == {STATE_CODE[s] for s in TERMINAL_STATES}
        for code in TERMINAL_CODES:
            assert (lifecycle.transition[code] == TRAP).all()

    def test_matrices_are_frozen(self, lifecycle):
        assert not lifecycle.transition.flags.writeable
        assert not lifecycle.program.flags.writeable
        with pytest.raises(ValueError):
            lifecycle.transition[0, 0] = 0
