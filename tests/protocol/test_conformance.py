"""Trace conformance: real runs only take transitions the table declares.

The interpreter raises on an undeclared ``(state, event)`` pair, so any
completed run is already conformant in the weak sense.  These tests arm
``RoutingEngine.fsm_log`` and check the strong form over random
workloads: every logged step is a table arc, targets match the table,
per-message step sequences are connected, and every message ends in a
terminal state (or a legal resting state when the run is cut short).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.protocol.lifecycle import (
    LIFECYCLE,
    TERMINAL_STATES,
    LifecycleState,
)


@st.composite
def workloads(draw):
    nodes = draw(st.sampled_from([4, 6]))
    lanes = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=8))
    messages = []
    for message_id in range(count):
        source = draw(st.integers(min_value=0, max_value=nodes - 1))
        hop = draw(st.integers(min_value=1, max_value=nodes - 1))
        flits = draw(st.integers(min_value=0, max_value=5))
        messages.append(Message(message_id, source,
                                (source + hop) % nodes, data_flits=flits))
    config = RMBConfig(nodes=nodes, lanes=lanes, retry=RetryPolicy(
        jitter=0.0, max_retries=6, header_timeout=24.0))
    return config, messages


def _drained_ring(config, messages, seed):
    ring = RMBRing(config, seed=seed)
    ring.routing.fsm_log = []
    ring.submit_all(messages)
    ring.drain()
    return ring


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(min_value=0, max_value=2**20))
def test_every_logged_transition_is_a_declared_arc(workload, seed):
    config, messages = workload
    ring = _drained_ring(config, messages, seed)
    log = ring.routing.fsm_log
    assert log, "a drained run must have taken transitions"
    for message_id, state, event, target in log:
        arc = LIFECYCLE.get((state, event))
        assert arc is not None, (
            f"msg{message_id} took undeclared ({state.value}, {event.value})"
        )
        assert arc.target is target


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(min_value=0, max_value=2**20))
def test_per_message_step_sequences_are_connected(workload, seed):
    config, messages = workload
    ring = _drained_ring(config, messages, seed)
    position = {}
    for message_id, state, _event, target in ring.routing.fsm_log:
        expected = position.get(message_id, LifecycleState.NEW)
        assert state is expected, (
            f"msg{message_id} fired from {state.value} but the previous "
            f"step left it in {expected.value}"
        )
        position[message_id] = target
    # Drained ring: every submitted message reached a terminal state.
    for message_id, final in position.items():
        assert final in TERMINAL_STATES, (
            f"msg{message_id} drained in non-terminal {final.value}"
        )
    assert set(position) == {m.message_id for m in messages}


@settings(max_examples=10, deadline=None)
@given(workloads(), st.integers(min_value=0, max_value=2**20))
def test_census_is_empty_after_drain(workload, seed):
    config, messages = workload
    ring = _drained_ring(config, messages, seed)
    assert ring.routing.lifecycle_census() == {}
