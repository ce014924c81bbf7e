"""Self-healing recovery for RMB runs: closing the detect→isolate→recover loop.

PR 1 made faults *survivable* (health states, evacuation, retry-around),
PR 2 made them *visible* (watchdog incidents, admission accounting) — but
the loop stayed open: the watchdog only reported, and the fault layer
repaired only on a pre-scripted plan.  This package closes it:

* :mod:`repro.resilience.breaker` — a per-segment circuit-breaker state
  machine (closed → open → half-open) that quarantines flapping segments
  after repeated failures and probes before readmitting them;
* :mod:`repro.resilience.recovery` — the :class:`RecoveryManager`, a
  periodic supervisor that consumes watchdog incidents and fault-layer
  transitions and *acts*: it holds quarantined segments out of service,
  force-evacuates buses wedged on DYING segments, and tightens admission
  control during fault storms (degraded mode) so retry storms cannot
  amplify an outage.

Everything here is **off by default**: a ring built without
``recovery=True`` constructs none of this machinery, and a run's results
are bit-identical to the pre-recovery tree.
"""

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.recovery import (
    RecoveryManager,
    RecoveryStats,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "RecoveryManager",
    "RecoveryStats",
]
