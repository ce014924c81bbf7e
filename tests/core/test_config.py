"""Unit tests for RMB configuration validation."""

from dataclasses import fields

import pytest

from repro.core.config import RetryPolicy, RMBConfig
from repro.errors import ConfigurationError


def test_valid_config():
    config = RMBConfig(nodes=8, lanes=3)
    assert config.top_lane == 2


def test_odd_node_count_rejected():
    # The odd/even INC marking is inconsistent on an odd ring.
    with pytest.raises(ConfigurationError):
        RMBConfig(nodes=9, lanes=2)


def test_too_few_nodes_rejected():
    with pytest.raises(ConfigurationError):
        RMBConfig(nodes=2, lanes=2)


def test_zero_lanes_rejected():
    with pytest.raises(ConfigurationError):
        RMBConfig(nodes=8, lanes=0)


@pytest.mark.parametrize("field,value", [
    ("cycle_period", -1),
    ("retry_delay", 0),
    ("retry_backoff", 0.5),
    ("max_retries", -1),
    ("clock_drift", 0.7),
    ("clock_jitter_fraction", -0.1),
    ("header_timeout", 0),
    ("retry_jitter", -1),
])
def test_invalid_fields_rejected(field, value):
    # Retry knobs are fields of the config's RetryPolicy:
    # ``retry_delay`` is ``retry.delay``, ``max_retries`` is
    # ``retry.max_retries``.
    knob = field.removeprefix("retry_")
    with pytest.raises(ConfigurationError):
        if knob in {policy_field.name for policy_field in fields(RetryPolicy)}:
            RMBConfig(nodes=8, lanes=2, retry=RetryPolicy(**{knob: value}))
        else:
            RMBConfig(nodes=8, lanes=2, **{field: value})


def test_header_timeout_none_allowed():
    config = RMBConfig(nodes=8, lanes=2,
                       retry=RetryPolicy(header_timeout=None))
    assert config.retry.header_timeout is None


def test_with_overrides_revalidates():
    config = RMBConfig(nodes=8, lanes=2)
    bigger = config.with_overrides(lanes=5)
    assert bigger.lanes == 5
    assert config.lanes == 2  # original untouched (frozen)
    with pytest.raises(ConfigurationError):
        config.with_overrides(nodes=7)


def test_config_is_frozen():
    config = RMBConfig(nodes=8, lanes=2)
    with pytest.raises(Exception):
        config.lanes = 9  # type: ignore[misc]



@pytest.mark.parametrize("overrides,entry,expected", [
    ({}, 2, [1, 2]),             # the top lane: straight or one down
    ({}, 1, [0, 1, 2]),
    ({}, 0, [0, 1]),
    ({"extend_up": False}, 1, [0, 1]),
    ({"compact_head_while_extending": True}, 2, [0, 1, 2]),
    ({"extend_up": False, "compact_head_while_extending": True}, 1, [0, 1]),
])
def test_header_reach(overrides, entry, expected):
    config = RMBConfig(nodes=8, lanes=3, **overrides)
    assert list(config.header_reach(entry)) == expected
