"""The bounded model checker: clean sweeps, and teeth.

A model checker that never finds anything is indistinguishable from one
that checks nothing, so alongside the zero-violation sweeps these tests
feed the explorer a known circular wait and require it to be flagged.
"""

from __future__ import annotations

import pytest

from repro.core.config import RetryPolicy
from repro.protocol.explore import (
    ExplorationError,
    ExploreOptions,
    Scenario,
    deadlock_scenario,
    exploration_config,
    explore_handshake,
    explore_lifecycle,
    smoke_scenarios,
)
from repro.errors import ProtocolError


# ---------------------------------------------------------------------------
# Handshake exploration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes", [2, 3, 4])
def test_handshake_exploration_is_clean(nodes):
    report = explore_handshake(nodes)
    assert report.ok
    assert report.states > 0 and report.edges > 0
    # Lemma 1 is tight: skew 1 actually occurs, and never more.
    assert report.max_skew == 1


def test_handshake_exploration_rejects_single_inc():
    with pytest.raises(ProtocolError):
        explore_handshake(1)


def test_handshake_state_bound_is_enforced():
    with pytest.raises(ExplorationError):
        explore_handshake(5, max_states=10)


# ---------------------------------------------------------------------------
# Lifecycle exploration
# ---------------------------------------------------------------------------

def test_smoke_scenarios_hold_every_property():
    for scenario in smoke_scenarios():
        report = explore_lifecycle(scenario.config(), scenario.messages(),
                                   label=scenario.label)
        assert report.ok, (scenario.label, report.violations,
                           report.deadlocks)
        assert report.states > 1
        # Some interleaving completes every message.
        assert report.completed_runs >= 1


def test_crossing_messages_explore_nack_and_retry_arms():
    # Two messages fighting over one lane: the sweep must reach refused
    # and retry states, not just the happy path.
    scenario = Scenario("4x1-contend", 4, 1, ((0, 2), (1, 3)))
    report = explore_lifecycle(scenario.config(), scenario.messages(),
                               label=scenario.label)
    assert report.ok
    # Timer nondeterminism fans out into multiple quiescent orderings.
    assert report.completed_runs > 1


def test_known_circular_wait_is_reported_as_deadlock():
    scenario = deadlock_scenario()
    report = explore_lifecycle(scenario.config(), scenario.messages(),
                               label=scenario.label)
    assert not report.violations
    assert report.deadlocks, "the 4x1 wedge must be flagged"
    assert report.completed_runs == 0


def budget_scenario(node_budget):
    """Three one-lane messages, one per source, under a node budget and
    uncapped per-message retries."""
    config = exploration_config(3, 1, retry=RetryPolicy(
        jitter=0.0, header_timeout=3.0, max_retries=None,
        node_budget=node_budget))
    routes = ((0, 2), (1, 0), (2, 1))
    return config, Scenario("3x1-budget", 3, 1, routes).messages()


def test_node_budget_keeps_states_apart_by_retry_totals():
    """A source's lifetime retry total decides whether its next refusal
    retries or abandons, so states that differ only in those totals are
    different states.  Merging them hid reachable outcomes: 1,016
    states instead of 3,136, and no run in which message 2 is abandoned
    while 0 and 1 deliver."""
    config, messages = budget_scenario(2)
    report = explore_lifecycle(config, messages,
                               options=ExploreOptions(keep_state_keys=True))
    assert report.ok
    assert report.states == 3136
    outcomes = {
        tuple(record[1] for record in key[5]) for key in report.state_keys
    }
    assert ("delivered", "delivered", "abandoned") in outcomes


def test_lifecycle_state_bound_is_enforced():
    scenario = Scenario("3x2-ring", 3, 2, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ExplorationError):
        explore_lifecycle(scenario.config(), scenario.messages(),
                          max_states=5)


# ---------------------------------------------------------------------------
# exploration_config escape hatch
# ---------------------------------------------------------------------------

def test_exploration_config_allows_small_and_odd_rings():
    for nodes in (2, 3, 5):
        config = exploration_config(nodes, 2)
        assert config.nodes == nodes
        assert config.synchronous


def test_exploration_config_keeps_overrides():
    policy = RetryPolicy(header_timeout=None, max_retries=7)
    config = exploration_config(3, 1, retry=policy, extend_up=False)
    assert config.retry == policy
    assert not config.extend_up


def test_exploration_config_rejects_degenerate_rings():
    with pytest.raises(ProtocolError):
        exploration_config(1, 2)
