"""Application-level workloads over the RMB (the paper's motivating
use cases): HPC collectives, real-time multimedia streams, and fairness
measurement."""

from repro.apps.collectives import (
    CollectiveDriver,
    CollectiveResult,
    STANDARD_COLLECTIVES,
)
from repro.apps.fairness import (
    fairness_report,
    jain_index,
    per_node_latencies,
    per_node_waits,
    spread,
)
from repro.apps.streams import (
    SessionReport,
    StreamDriver,
    StreamSession,
    evenly_spread_sessions,
)

__all__ = [
    "CollectiveDriver",
    "CollectiveResult",
    "STANDARD_COLLECTIVES",
    "SessionReport",
    "StreamDriver",
    "StreamSession",
    "evenly_spread_sessions",
    "fairness_report",
    "jain_index",
    "per_node_latencies",
    "per_node_waits",
    "spread",
]
