"""The RMB core — the paper's contribution.

Public surface: build an :class:`RMBRing` from an
:class:`RMBConfig`, submit :class:`Message` objects, run or drain, then
read :class:`RunStats`.  Lower layers (grid, compaction, cycles, routing)
are exported for tests, benchmarks and power users.
"""

from repro.core.compaction import CompactionEngine, CompactionStats
from repro.core.config import RMBConfig
from repro.core.cycles import (
    CycleController,
    GlobalCycleDriver,
    HandshakePhase,
    max_neighbour_skew,
    wire_ring,
)
from repro.core.flits import Message, MessageRecord
from repro.core.invariants import InvariantMonitor
from repro.core.network import RMBRing
from repro.core.ports import PE_SOURCE, PortView, all_ports, inc_ports, port_view
from repro.core.routing import RoutingCensus, RoutingEngine, format_census
from repro.core.segments import SegmentGrid
from repro.core.selfcheck import CheckResult, run_selfcheck
from repro.core.stats import RunStats
from repro.core.status import (
    ALL_CONDITIONS,
    CODE_MEANINGS,
    LEGAL_CODES,
    PortHealth,
    classify_condition,
    code_for,
    is_legal,
    move_sequences,
    move_sequences_up,
)
from repro.core.trace_render import glyph_for, render_grid, render_ring
from repro.core.virtual_bus import BusPhase, VirtualBus

__all__ = [
    "ALL_CONDITIONS",
    "BusPhase",
    "CODE_MEANINGS",
    "CompactionEngine",
    "CompactionStats",
    "CycleController",
    "GlobalCycleDriver",
    "HandshakePhase",
    "InvariantMonitor",
    "LEGAL_CODES",
    "Message",
    "MessageRecord",
    "PE_SOURCE",
    "PortHealth",
    "PortView",
    "RMBConfig",
    "RMBRing",
    "RoutingCensus",
    "RoutingEngine",
    "RunStats",
    "CheckResult",
    "SegmentGrid",
    "VirtualBus",
    "all_ports",
    "classify_condition",
    "code_for",
    "format_census",
    "glyph_for",
    "inc_ports",
    "is_legal",
    "max_neighbour_skew",
    "move_sequences",
    "move_sequences_up",
    "port_view",
    "render_grid",
    "render_ring",
    "run_selfcheck",
    "wire_ring",
]
