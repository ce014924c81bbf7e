"""Unit tests for Table 1 status codes and Figure 7 move sequences (E1/E5)."""

import itertools

import pytest

from repro.core import status
from repro.core.status import (
    ALL_CONDITIONS,
    CODE_MEANINGS,
    FROM_ABOVE,
    FROM_BELOW,
    LEGAL_CODES,
    STRAIGHT,
    TRANSIENT_CODES,
    classify_condition,
    code_for,
    is_legal,
    move_condition,
    move_sequences,
    sources,
)
from repro.errors import ProtocolError


def test_exactly_six_legal_codes():
    # Table 1: 101 and 111 are "Not allowed".
    assert LEGAL_CODES == {0b000, 0b001, 0b010, 0b011, 0b100, 0b110}
    assert not is_legal(0b101)
    assert not is_legal(0b111)


def test_meanings_cover_all_eight_codes():
    assert set(CODE_MEANINGS) == set(range(8))
    assert CODE_MEANINGS[0b101] == "Not allowed"
    assert CODE_MEANINGS[0b111] == "Not allowed"


def test_transient_codes_are_the_two_source_superpositions():
    assert TRANSIENT_CODES == {0b011, 0b110}
    for code in TRANSIENT_CODES:
        assert is_legal(code)


def test_code_for_adjacent_lanes():
    assert code_for(3, 2) == FROM_ABOVE
    assert code_for(2, 2) == STRAIGHT
    assert code_for(1, 2) == FROM_BELOW


def test_code_for_rejects_skips():
    with pytest.raises(ProtocolError):
        code_for(4, 2)
    with pytest.raises(ProtocolError):
        code_for(0, 2)


def test_sources_inverse_of_code_for():
    assert sources(FROM_ABOVE, 2) == {3}
    assert sources(STRAIGHT, 2) == {2}
    assert sources(FROM_BELOW, 2) == {1}
    assert sources(0b011, 2) == {1, 2}
    assert sources(0b110, 2) == {2, 3}
    assert sources(0b000, 2) == set()


def test_sources_rejects_illegal_code():
    with pytest.raises(ProtocolError):
        sources(0b101, 2)


@pytest.mark.parametrize("upstream,downstream", [
    (2, 2), (2, 1), (1, 2), (1, 1),
])
def test_move_sequences_all_steps_legal(upstream, downstream):
    # Moving a segment from lane 2 to lane 1; Figure 7's four conditions.
    for sequence in move_sequences(upstream, 2, downstream):
        assert sequence.validates(), (
            f"illegal step in {sequence} for upstream={upstream}, "
            f"downstream={downstream}"
        )
    assert move_condition(upstream, 2, downstream) == \
        classify_condition(upstream, 2, downstream)


def test_move_sequences_match_figure7_codes():
    # upstream straight (enters at lane 2), downstream straight (leaves 2):
    sequences = move_sequences(2, 2, 2)
    by_lane = {(s.side.value, s.lane): s.codes for s in sequences}
    # Upstream INC: output 1 is made as "from above" (input 2).
    assert by_lane[("upstream", 1)] == (0b000, 0b100, 0b100)
    # Upstream INC: output 2 was straight, is broken last.
    assert by_lane[("upstream", 2)] == (0b010, 0b010, 0b000)
    # Downstream INC: output 2 goes straight -> straight+below -> below.
    assert by_lane[("downstream", 2)] == (0b010, 0b011, 0b001)


def test_move_sequences_downstream_below_matches_figure7():
    # Bus leaves the downstream INC at lane 1 ("below" flavour).
    sequences = move_sequences(2, 2, 1)
    down = [s for s in sequences if s.side.value == "downstream"][0]
    assert down.lane == 1
    assert down.codes == (0b100, 0b110, 0b010)


def test_move_sequences_endpoint_sides_are_omitted():
    # Source INC (upstream None): only the downstream port changes.
    sequences = move_sequences(None, 2, 2)
    assert all(s.side.value == "downstream" for s in sequences)
    # Destination INC (downstream None): only upstream ports change.
    sequences = move_sequences(2, 2, None)
    assert all(s.side.value == "upstream" for s in sequences)


def test_move_sequences_rejects_figure7_violations():
    with pytest.raises(ProtocolError):
        move_sequences(3, 2, 2)   # bus enters from lane 3: illegal
    with pytest.raises(ProtocolError):
        move_sequences(2, 2, 3)   # bus leaves at lane 3: illegal
    with pytest.raises(ProtocolError):
        move_sequences(2, 0, 2)   # cannot move below lane 0


def test_move_condition_agrees_with_a_fresh_walk():
    # Every entry and exit lane from two below to one above, on lane 0
    # and on every lane that can move with up to six lanes: the cached
    # answer is the walk's, and it raises where the walk raises.
    status._relative_move_condition.cache_clear()
    for lane in range(6):
        for up, down in itertools.product((None, -2, -1, 0, 1), repeat=2):
            upstream = None if up is None else lane + up
            downstream = None if down is None else lane + down
            try:
                sequences = move_sequences(upstream, lane, downstream)
            except ProtocolError:
                with pytest.raises(ProtocolError):
                    move_condition(upstream, lane, downstream)
                continue
            assert all(sequence.validates() for sequence in sequences)
            assert move_condition(upstream, lane, downstream) == \
                classify_condition(upstream, lane, downstream)
    # One walk per relative class, and no failure is cached.
    assert status._relative_move_condition.cache_info().currsize == 9


def test_move_condition_names_the_real_lanes():
    with pytest.raises(ProtocolError, match="enters upstream INC at lane 7"):
        move_condition(7, 5, 5)


def test_classify_condition_names_exactly_four():
    seen = set()
    for upstream in (2, 1, None):
        for downstream in (2, 1, None):
            seen.add(classify_condition(upstream, 2, downstream))
    assert seen == set(ALL_CONDITIONS)
    assert len(ALL_CONDITIONS) == 4
