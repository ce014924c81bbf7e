"""Supervised execution for long RMB runs.

PR 1 taught the simulator to survive *hardware* faults; this package
addresses *runtime* failure of the run itself:

* :mod:`repro.supervision.watchdog` — a periodic no-progress probe that
  tears down stalled buses and records every detection as a structured
  :class:`~repro.supervision.incidents.Incident`;
* :mod:`repro.supervision.admission` — per-INC admission control with
  shed-or-defer overload policy (wired through
  :class:`~repro.core.routing.RoutingEngine`);
* :mod:`repro.supervision.checkpoint` — deterministic checkpoint/restore
  of a complete run (kernel queue, RNG streams, grid, buses, cycle state,
  fault schedule, stats) to a versioned snapshot file.
"""

from repro.supervision.admission import AdmissionController
from repro.supervision.checkpoint import (
    SNAPSHOT_VERSION,
    describe_snapshot,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
    save_snapshot_bytes,
    PeriodicCheckpointer,
    resume_run,
)
from repro.supervision.incidents import Incident, IncidentLog
from repro.supervision.watchdog import Watchdog

__all__ = [
    "AdmissionController",
    "Incident",
    "IncidentLog",
    "PeriodicCheckpointer",
    "SNAPSHOT_VERSION",
    "Watchdog",
    "describe_snapshot",
    "load_snapshot",
    "load_snapshot_bytes",
    "resume_run",
    "save_snapshot",
    "save_snapshot_bytes",
]
