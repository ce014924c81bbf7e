"""Differential net over the traffic catalogue: event vs batch.

Every pattern family, every stochastic model, and every arrival process
(including the bursty MMPP and diurnal "millions of users" shapes) is
replayed through the event heap and the vectorized batch backend with
the same seeds; results must be bit-identical under the same
:func:`tests.batch.test_differential.assert_identical` contract.  The
features the batch backend deliberately does not model must be refused
*by name* through the saturation engine's front door.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchRing, replay_on_batch
from repro.batch.engine import BatchUnsupported
from repro.core import RMBConfig, RMBRing
from repro.traffic import (
    FAMILIES,
    STOCHASTIC_MODELS,
    SaturationConfig,
    make_pattern,
    pattern_schedule,
    replay_on_ring,
    run_point,
)
from tests.batch.test_differential import BOUNDED, assert_identical

NODES = 16
LANES = 3
DURATION = 60.0
RATE = 0.06


def run_pattern_both(spec, arrival, seed=3, rate=RATE,
                     duration=DURATION):
    config = RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                       retry=BOUNDED)
    pattern = make_pattern(spec, NODES, k=LANES, seed=seed)

    def schedule():
        return pattern_schedule(pattern, duration=duration, rate=rate,
                                data_flits=4, seed=seed, arrival=arrival)

    event = RMBRing(config, seed=seed, probe_period=8.0)
    replay_on_ring(event, schedule())
    batch = BatchRing(config, seed=seed, probe_period=8.0)
    replay_on_batch(batch, schedule())
    horizon = schedule().horizon() + 1.0
    event.run(horizon)
    event.drain(max_ticks=500_000)
    batch.run(horizon)
    batch.drain(max_ticks=500_000)
    return event, batch


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_permutation_family_agrees(family):
    event, batch = run_pattern_both(family, "bernoulli")
    assert event.stats().completed > 0
    assert_identical(event, batch)


@pytest.mark.parametrize("spec", list(STOCHASTIC_MODELS) + ["kperm"])
def test_stochastic_and_kperm_patterns_agree(spec):
    event, batch = run_pattern_both(spec, "bernoulli")
    assert event.stats().completed > 0
    assert_identical(event, batch)


@pytest.mark.parametrize("arrival", ["poisson", "mmpp", "diurnal"])
@pytest.mark.parametrize("spec", ["uniform", "tornado"])
def test_every_arrival_process_agrees(spec, arrival):
    """Float arrival instants (Poisson-family processes) replay
    identically: the batch backend quantizes time exactly as the heap."""
    event, batch = run_pattern_both(spec, arrival, rate=0.08)
    assert event.stats().completed > 0
    assert_identical(event, batch)


def test_saturation_points_agree_across_backends():
    pattern = make_pattern("transpose", NODES, k=4, seed=2)
    results = []
    for backend in ("event", "batch"):
        cfg = SaturationConfig(nodes=NODES, lanes=4, data_flits=4,
                               seed=2, duration=60.0, backend=backend)
        results.append(run_point(cfg, pattern, rate=0.05))
    event_point, batch_point = results
    assert event_point == batch_point


class TestBatchRefusalsByName:
    """Unsupported compositions name the offending feature."""

    def refused(self, **kwargs):
        cfg = SaturationConfig(nodes=8, lanes=2, duration=20.0,
                               backend="batch", **kwargs)
        pattern = make_pattern("uniform", 8, k=2, seed=0)
        with pytest.raises(BatchUnsupported) as excinfo:
            run_point(cfg, pattern, rate=0.1)
        return str(excinfo.value)

    def test_fault_plan_refused_by_name(self):
        from repro.faults import parse_spec
        plan = parse_spec("seg:1,0@5", 8, 2, seed=0)
        assert "fault_plan" in self.refused(fault_plan=plan)

    def test_recovery_refused_by_name(self):
        assert "recovery" in self.refused(recovery=True)

    def test_watchdog_refused_by_name(self):
        # A sweep arms no watchdog; ``repro run`` does, through the same
        # builder.
        from repro.traffic.saturation import build_rmb
        with pytest.raises(BatchUnsupported, match="watchdog"):
            build_rmb(RMBConfig(nodes=8, lanes=2), "batch", watchdog=True)

    def test_admission_limit_refused_by_name(self):
        assert "admission_limit" in self.refused(admission_limit=2)

    def test_obs_refused_by_name(self):
        from repro.obs import Observability
        assert "obs" in self.refused(obs=Observability(level="full"))

    def test_combination_lists_every_flagged_feature(self):
        message = self.refused(admission_limit=2, recovery=True)
        assert "recovery" in message and "admission_limit" in message
