"""RetryPolicy: validation, the config's only retry home, budgets, pickles."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.errors import ConfigurationError, SnapshotError
from repro.supervision import load_snapshot_bytes, save_snapshot_bytes


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"delay": 0.0},
        {"backoff": 0.9},
        {"jitter": -0.1},
        {"max_retries": -1},
        {"header_timeout": 0.0},
        {"node_budget": -1},
    ])
    def test_invalid_policies_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**overrides)

    def test_defaults_match_legacy_config_defaults(self):
        """The policy's defaults are the historical retry knobs, and a
        config without an explicit policy gets exactly them (the
        baseline-preservation contract)."""
        policy = RetryPolicy()
        assert RMBConfig(nodes=8, lanes=3).retry == policy
        assert (policy.delay, policy.backoff, policy.jitter) == \
            (16.0, 2.0, 0.5)
        assert policy.max_retries is None
        assert policy.header_timeout == 128.0
        assert policy.node_budget is None

    def test_with_overrides_revalidates(self):
        policy = RetryPolicy()
        assert policy.with_overrides(delay=4.0).delay == 4.0
        with pytest.raises(ConfigurationError):
            policy.with_overrides(backoff=0.0)


class TestAliases:
    """The policy is the only home of the retry knobs: the config's old
    flat spellings are not fields any more."""

    @pytest.mark.parametrize("alias", [
        "retry_delay", "retry_backoff", "retry_jitter", "max_retries",
        "header_timeout",
    ])
    def test_flat_retry_kwargs_are_refused(self, alias):
        with pytest.raises(TypeError, match=alias):
            RMBConfig(nodes=8, lanes=2, **{alias: 1.0})

    def test_with_overrides_on_policy_is_authoritative(self):
        config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(delay=8.0))
        policy = RetryPolicy(delay=2.0, jitter=0.0)
        assert config.with_overrides(retry=policy).retry == policy

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_old_checkpoint_version_is_refused_by_name(self, version):
        """Version-1 snapshots may hold configs pickled before the
        unification, without a ``retry`` slot; version-2 ones lack the
        grid epochs and parked headers; version-3 ones lack the
        per-pass bus maps, the ready nodes and the parked headers'
        deadlines; version-4 ones hold a monotonicity tracker keyed by
        ``(bus, hop)``; version-5 ones carry derived indexes that a
        restore now rebuilds; version-6 ones hold fabrics, rings and
        retry policies with fields that are gone; version-7 ones hold
        trace recorders without pending columns and engines without
        their cached trace flag; version-8 ones hold a simulator's
        trace, a recorder's capacity and a compaction move log, which
        are gone; version-9 ones hold event priorities, a flit period
        and watchdog, recovery and breaker configs, which are gone;
        version-10 ones hold each ring's own flit and cycle events and
        its flit canceller, where a ring clock now runs them.
        Each is refused with both versions named instead of being
        half-restored."""
        ring = RMBRing(RMBConfig(nodes=8, lanes=3))
        header, payload = save_snapshot_bytes(ring).split(b"\n", 1)
        manifest = json.loads(header)
        manifest["version"] = version
        old = json.dumps(manifest).encode("utf-8") + b"\n" + payload
        with pytest.raises(SnapshotError,
                           match=rf"version {version} unsupported .*version 11"):
            load_snapshot_bytes(old)

    def test_policy_survives_pickling(self):
        config = RMBConfig(nodes=8, lanes=3,
                           retry=RetryPolicy(delay=8.0, node_budget=5))
        clone = pickle.loads(pickle.dumps(config))
        assert clone.retry == config.retry


class TestNodeBudget:
    @staticmethod
    def walled_ring(node_budget):
        """A 1-lane ring with its lone lane walled off: every request
        bounces, so retries accumulate fast and deterministically."""
        policy = RetryPolicy(delay=4.0, jitter=0.0, max_retries=50,
                             node_budget=node_budget)
        config = RMBConfig(nodes=8, lanes=1, compaction_enabled=False,
                           retry=policy, check_level="off")
        ring = RMBRing(config, seed=1)
        ring.grid.claim(1, 0, 900)
        return ring

    def test_budget_exhaustion_abandons_instead_of_retrying(self):
        ring = self.walled_ring(node_budget=6)
        records = ring.submit_all(
            Message(i, 0, 2, data_flits=2) for i in range(3))
        ring.drain()
        assert ring.routing.budget_abandoned >= 1
        assert all(record.abandoned for record in records)
        # The fuse is a *node* budget: total retries across node 0's
        # messages stay at the cap instead of 3 * max_retries.
        total_retries = sum(record.retries for record in records)
        assert total_retries == 6

    def test_no_budget_means_no_budget_abandons(self):
        ring = self.walled_ring(node_budget=None)
        ring.submit(Message(0, 0, 2, data_flits=2))
        ring.run(400)
        assert ring.routing.budget_abandoned == 0

    def test_budget_is_per_node(self):
        ring = self.walled_ring(node_budget=4)
        mine = ring.submit(Message(0, 0, 2, data_flits=2))
        ring.drain()
        assert mine.abandoned
        assert mine.retries == 4
        # Node 3's budget is untouched: behind a wall of its own, its
        # message spends node 3's full budget — node 0's exhaustion does
        # not pre-abandon it.
        ring.grid.claim(4, 0, 901)
        theirs = ring.submit(Message(1, 3, 5, data_flits=2))
        ring.drain()
        assert theirs.abandoned
        assert theirs.retries == 4
