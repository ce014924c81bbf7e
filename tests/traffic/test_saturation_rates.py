"""Exact pins on the traffic saturation rates, on both backends.

The saturation rate a sweep finds is a simulation fact, deterministic in
the seed, so it is pinned exactly.  The sweeps are those of
EXPERIMENTS.md E34: N=16, k=4, 4 data flits, seed 7, 100-tick windows,
4 bisection steps.  Their unstable points run the header-timeout path
under ``BOUNDED_RETRY``, so the pins also guard the parked headers'
timeout deadlines (DESIGN.md P5).  E34 prints the kperm value rounded
to 0.157625.
"""

from __future__ import annotations

import pytest

from repro.traffic import SaturationConfig, make_pattern, saturation_search

NODES = 16
LANES = 4
SEED = 7

RATES = {
    "ring-shift": 0.5,
    "transpose": 0.095375,
    "tornado": 0.095375,
    "shuffle": 0.06425,
    "kperm": 0.15762500000000002,
    "uniform": 0.033125,
    "hotspot": 0.033125,
}


@pytest.mark.parametrize("backend", ["event", "batch"])
@pytest.mark.parametrize("pattern", list(RATES))
def test_saturation_rate_is_pinned(pattern, backend):
    config = SaturationConfig(nodes=NODES, lanes=LANES, data_flits=4,
                              seed=SEED, duration=100.0, backend=backend,
                              iterations=4)
    curve = saturation_search(
        config, make_pattern(pattern, NODES, k=LANES, seed=SEED))
    assert curve.saturation_rate == RATES[pattern]
