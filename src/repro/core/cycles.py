"""Odd/even cycle control — paper Section 2.5, Figures 9/10, Table 2.

Compaction decisions are made in alternating *odd* and *even* cycles.  In
the asynchronous RMB every INC runs off its own clock, so cycles are kept
locally consistent by a four-phase handshake over two state bits per INC:

* ``OD`` — "own datapaths have switched" (this cycle's moves are done);
* ``OC`` — "own cycle has changed".

Each INC sees its neighbours' bits as LD/LC (left) and RD/RC (right).  The
paper's five rules::

    1. at reset, OD = OC = 0 for all INCs
    2. OD := 1  if ID = 1 and LC = 0 and RC = 0
    3. OC := 1  if OD = 1 and LD = 1 and RD = 1      (figure 10)
    4. OD := 0  if OD = 1 and LC = 1 and RC = 1
    5. OC := 0  if OC = 1 and LD = 0 and RD = 0

(The body text of the paper prints rule 3 with LC/RC; Figure 10 and the
worked proof of Lemma 1 use LD/RD, which is the version that forms a valid
four-phase handshake, so we follow the figure.)

``ID`` is the INC-internal signal meaning "all datapath switches for the
current cycle completed"; in this model the INC performs its compaction
moves as the first action of each cycle, then raises ``ID``.

Lemma 1 (reproduced by experiment E7): under this protocol, the cycle
counts of neighbouring INCs never differ by more than one.

The rules themselves are declared once, as a table, in
:mod:`repro.protocol.handshake`; this module executes that table on the
simulator's clock domains.  :mod:`repro.protocol.explore` replays the
same table exhaustively to machine-check Lemma 1.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.protocol.handshake import (
    HANDSHAKE_TABLE,
    HandshakePhase,
    HandshakeState,
    NeighbourBits,
    handshake_step,
)
from repro.sim.clock import ClockDomain
from repro.sim.trace import TraceRecorder

__all__ = [
    "HANDSHAKE_TABLE",
    "CycleController",
    "GlobalCycleDriver",
    "HandshakePhase",
    "max_neighbour_skew",
    "wire_ring",
]


#: Callback the compaction engine registers: ``work(inc_index, cycle)``.
WorkFn = Callable[[int, int], None]


class CycleController:
    """The odd/even handshake FSM of a single INC.

    One transition is evaluated per local clock edge — a conservative model
    of the INC's sequential logic.  Neighbour bits are read directly from
    the neighbouring controllers, modelling the dedicated status wires of
    Table 2.
    """

    def __init__(self, index: int, work: WorkFn,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.index = index
        self.od = False
        self.oc = False
        self.cycle = 0
        self.phase = HandshakePhase.WORK
        self.transitions = 0
        self._work = work
        self._trace = trace
        self._trace_on = trace is not None and trace.enabled
        self.left: Optional["CycleController"] = None
        self.right: Optional["CycleController"] = None
        self._domain: Optional[ClockDomain] = None

    def wire(self, left: "CycleController", right: "CycleController") -> None:
        """Connect the neighbour status wires."""
        self.left = left
        self.right = right

    def attach_clock(self, domain: ClockDomain) -> None:
        """Drive the FSM from a clock domain (one evaluation per edge)."""
        self._domain = domain
        domain.subscribe(self.on_edge)

    def _clock_time(self) -> float:
        """Trace timestamp source: the domain's simulator clock if wired."""
        return self._domain.sim.now if self._domain is not None else 0.0

    # ------------------------------------------------------------------
    def on_edge(self, _edge_index: int) -> None:
        """Evaluate at most one FSM transition (called on each clock edge).

        The transition itself is table data
        (:data:`repro.protocol.handshake.HANDSHAKE_TABLE`); this method
        only supplies the neighbour wires and runs the fired rule's side
        effects (datapath work, cycle count, trace).
        """
        if self.left is None or self.right is None:
            raise ConfigurationError(
                f"cycle controller {self.index} not wired to neighbours"
            )
        after, rule = handshake_step(
            HandshakeState(self.phase, self.od, self.oc),
            NeighbourBits(self.left.od, self.left.oc),
            NeighbourBits(self.right.od, self.right.oc),
        )
        if rule is None:
            return  # guard held: wait for the neighbours
        if rule.does_work:
            self._work(self.index, self.cycle)
        self.od = after.od
        self.oc = after.oc
        if rule.advances_cycle:
            self.cycle += 1
            self.transitions += 1
            if self._trace_on:
                self._record("cycle_switch")
        self.phase = after.phase
        if self._trace_on:
            self._record("phase", phase=self.phase.value)

    def parity(self) -> int:
        """Current cycle parity (0 = even, 1 = odd)."""
        return self.cycle % 2

    def _record(self, kind: str, **details: object) -> None:
        self._trace.record(self._clock_time(), kind,
                           f"inc{self.index}", cycle=self.cycle, **details)


def wire_ring(controllers: Sequence[CycleController]) -> None:
    """Wire a list of controllers into a ring (left = lower index)."""
    count = len(controllers)
    if count < 2:
        raise ConfigurationError("a ring needs at least two controllers")
    for index, controller in enumerate(controllers):
        controller.wire(
            left=controllers[(index - 1) % count],
            right=controllers[(index + 1) % count],
        )


def max_neighbour_skew(controllers: Sequence[CycleController]) -> int:
    """Largest ``|cycle_i - cycle_(i+1)|`` around the ring (Lemma 1 metric)."""
    count = len(controllers)
    return max(
        abs(controllers[i].cycle - controllers[(i + 1) % count].cycle)
        for i in range(count)
    )


class GlobalCycleDriver:
    """Synchronous-mode replacement: one shared cycle counter.

    Every ``cycle_period`` ticks the counter advances and a single global
    work function runs (snapshot-based compaction).  This bypasses the
    handshake — it is the "all clocks identical, zero skew" limit of the
    protocol, used for fast experiments and as a cross-check oracle for the
    asynchronous mode.
    """

    def __init__(self, work: Callable[[int], None]) -> None:
        self.cycle = 0
        self._work = work

    def tick(self) -> None:
        """Advance one cycle and run the global compaction pass."""
        self._work(self.cycle)
        self.cycle += 1

    def parity(self) -> int:
        return self.cycle % 2
