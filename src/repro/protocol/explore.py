"""Bounded model checking of the RMB protocol state machines.

The transition tables in :mod:`repro.protocol.lifecycle` and
:mod:`repro.protocol.handshake` make the protocol's legal moves
*enumerable*, so on small configurations we can do better than sampling
behaviour by simulation: exhaustively enumerate every reachable joint
state and machine-check the paper's correctness claims on each one.

Two explorers live here:

:func:`explore_handshake`
    Pure breadth-first search over the odd/even compaction handshake
    (paper Section 2.5, rules 1-5).  Joint state = one
    ``(phase, cycle)`` pair per INC; each step lets one INC observe its
    neighbours and apply :func:`repro.protocol.handshake.handshake_step`.
    Checked on every reachable state:

    * the Gray-code invariant — the ``(OD, OC)`` bits always equal
      ``BITS_OF_PHASE[phase]`` (Figure 10's encoding);
    * **Lemma 1** — neighbouring INCs' cycle counts differ by at most 1;
    * progress — some INC always has an enabled rule (the handshake
      itself can never wedge the ring).

:func:`explore_lifecycle`
    Breadth-first search over the *real* routing and compaction engines
    driven in a sealed mini-harness: time pinned to zero, retry timers
    captured in a bag instead of a simulator queue, no RNG, no tracing.
    The nondeterminism explored is scheduling — from each state we fork
    the world and try every enabled action: one flit tick, one
    synchronous compaction pass, firing any pending retry timer, or
    (with a fault budget) failing / killing / repairing one segment
    through the same :mod:`repro.faults.transitions` the production
    fault layer uses.  Checked on every reachable state:

    * **Table 1 legality** — every occupied status register holds a
      legal code and no input port drives two outputs
      (:func:`repro.core.ports.validate_ports`);
    * structural soundness — grid/bus agreement, connected ±1 bus
      shapes (:mod:`repro.core.invariants`);
    * **Theorem 1, make-before-break** — across every compaction pass,
      established buses stay complete and their per-hop lanes never
      rise, except where a hop sat on a DYING/DEAD segment before the
      pass (upward *evacuation* is the fault layer's legal escape);
    * **deadlock freedom** — every state with pending work can reach
      either quiescence (``pending() == 0``) or a state holding a retry
      timer *using protocol moves alone* (fault moves are adversarial
      environment steps, so liveness may not depend on them).

Three scaling devices (:class:`ExploreOptions`) push the frontier past
the original N<=5 / k<=3 sweep:

* **ring-rotation symmetry quotienting** (``symmetry=True``) — each
  state is canonicalised by minimising its signature over the scenario's
  valid ring rotations (with message ids relabelled structurally), so
  whole orbits collapse to one stored key.  The engine's intra-tick
  serialisation (admission scans nodes in ascending absolute index) is
  *not* rotation-covariant, so the explorer does not assume
  equivariance: every stored state is re-expanded under each group
  element by concretely rotating the world (``_World.rotate``).  The
  quotient therefore covers the closure of the reachable set under
  rotated serialisations — a superset of the exact run's behaviours, in
  which every state is a real protocol state reachable under *some*
  serialisation of the same simultaneous hardware events.  Safety
  verdicts are sound (and strictly stronger than exact mode's);
  deadlock freedom is checked at orbit granularity, so fault-liveness
  tests and CI keep exact mode for that property.  The handshake
  explorer's per-INC step relation *is* fully equivariant, and it
  additionally quotients by ring reflection, which its
  left/right-symmetric guards admit; the lifecycle ring is
  unidirectional, so only rotations apply there.
* **hash compaction** (``hash_compact=True``) — the seen-set stores
  128-bit BLAKE2b digests of canonical signatures instead of the
  signatures themselves (~16 bytes/state).  A digest collision could
  silently merge two distinct states (never invent a violation, only
  mask one); at 10^6 states the collision probability is ~1.5e-27, and
  the exact mode plus the differential test in
  ``tests/protocol/test_explore_modes.py`` guard the scheme.
* **fault moves** (``fault_budget >= 1``) — ``fail``/``kill``/``repair``
  actions drive segments through OK -> DYING -> DEAD -> OK exactly as
  :class:`repro.faults.inject.FaultManager` would, bounded by a budget
  on ``fail`` moves so the space stays finite.

Any violating path is captured as a :class:`Counterexample` — a
deterministic action script replayable through the real engines with
:func:`replay_counterexample`, so every checker finding is a runnable
regression test.

Exploration is bounded by construction — small ``N``, ``k``, message
count, ``data_flits``, ``max_retries`` and ``header_timeout`` keep the
signature space finite — and additionally by ``max_states`` as a
safety net.  :func:`explore_all` runs the default sweep used by
experiment E30 and the CI smoke job; E31 measures the scaling modes.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.compaction import CompactionEngine
from repro.core.config import RetryPolicy, RMBConfig
from repro.core.flits import Message
from repro.core.invariants import check_bus_shapes, check_grid_bus_agreement
from repro.core.ports import validate_ports
from repro.core.routing import RoutingEngine
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.core.virtual_bus import BusPhase, VirtualBus
from repro.errors import InvariantViolation, ProtocolError
from repro.faults.transitions import fail_target, kill_target, repair_target
from repro.protocol.handshake import (
    BITS_OF_PHASE,
    HandshakePhase,
    HandshakeState,
    NeighbourBits,
    handshake_step,
)

__all__ = [
    "Counterexample",
    "ExplorationError",
    "ExploreOptions",
    "HandshakeReport",
    "LifecycleReport",
    "ReplayResult",
    "Scenario",
    "SweepReport",
    "default_scenarios",
    "deadlock_scenario",
    "explore_all",
    "explore_handshake",
    "explore_lifecycle",
    "exploration_config",
    "fault_scenarios",
    "replay_counterexample",
    "run_script",
    "scale_scenario",
    "symmetry_group",
]

#: Phases during which a virtual bus is *established* in the sense of
#: Theorem 1: the circuit has been acknowledged and data may flow, so
#: compaction must move it without ever breaking it.
_ESTABLISHED_PHASES = frozenset(
    {BusPhase.ACK_RETURN, BusPhase.STREAMING, BusPhase.DRAINING}
)

#: One explorer move.  Concrete shapes: ``("tick",)``, ``("compact",)``,
#: ``("timer", message_id)``, ``("fail", segment, lane)``,
#: ``("kill", segment, lane)``, ``("repair", segment, lane)``, plus the
#: replay-only pseudo-action ``("rotate", rotation)`` emitted into
#: symmetry-mode counterexample scripts (it rotates the whole world, it
#: is never an explored protocol move).
Action = Tuple[object, ...]

#: A state signature (or its 128-bit digest in hash-compaction mode).
StateKey = object

#: The sabotage hooks recognised by :class:`ExploreOptions` (test-only).
SABOTAGE_MODES = frozenset({"lift-established-hop", "drop-retry-timer"})

_FAULT_KINDS = frozenset({"fail", "kill", "repair"})


class ExplorationError(RuntimeError):
    """The state space exceeded the configured ``max_states`` bound."""


@dataclass(frozen=True)
class ExploreOptions:
    """Knobs for the lifecycle explorer's scaling and fault modes.

    The defaults reproduce the original exact explorer bit-for-bit:
    no quotienting, full signatures in the seen-set, no fault moves.

    Attributes:
        symmetry: canonicalise states over the scenario's valid ring
            rotations before membership testing, re-expanding each
            stored state under every group element (see the module
            docstring for the serialisation-closure semantics).  When
            no non-trivial rotation maps the message multiset onto
            itself the group is just the identity and nothing changes.
        hash_compact: store 128-bit digests in the seen-set instead of
            full canonical signatures.
        fault_budget: maximum number of ``fail`` moves along any path
            (0 disables fault exploration entirely).
        fault_targets: restrict fault moves to these ``(segment, lane)``
            pairs; ``None`` means every segment.  A restriction also
            filters the symmetry group to rotations preserving the set.
        sabotage: test-only protocol corruption, used to prove the
            checker and the counterexample replayer have teeth.  One of
            ``"lift-established-hop"`` (compaction illegally raises an
            established hop — a Theorem 1 violation) or
            ``"drop-retry-timer"`` (the ``retry -> queued`` lifecycle
            arc is severed: fired timers are dropped, wedging the
            message — a deadlock).  Incompatible with ``symmetry``,
            which the corruption does not respect.
        keep_state_keys: retain every stored state key on the report
            (``LifecycleReport.state_keys``).  In the default
            exact/unquotiented mode the keys are the raw signatures,
            which is what the symmetry-consistency tests canonicalise
            to count true orbits.
    """

    symmetry: bool = False
    hash_compact: bool = False
    fault_budget: int = 0
    fault_targets: Optional[Tuple[Tuple[int, int], ...]] = None
    sabotage: Optional[str] = None
    keep_state_keys: bool = False

    def validate(self, config: RMBConfig) -> None:
        """Reject inconsistent combinations before exploration starts."""
        if self.fault_budget < 0:
            raise ProtocolError("fault_budget must be >= 0")
        if self.sabotage is not None and self.sabotage not in SABOTAGE_MODES:
            raise ProtocolError(
                f"unknown sabotage mode {self.sabotage!r}; "
                f"expected one of {sorted(SABOTAGE_MODES)}"
            )
        if self.sabotage is not None and self.symmetry:
            raise ProtocolError(
                "sabotage corrupts one concrete bus/timer and so breaks "
                "rotation equivariance; disable symmetry to use it"
            )
        if self.fault_targets is not None:
            for segment, lane in self.fault_targets:
                if not (0 <= segment < config.nodes
                        and 0 <= lane < config.lanes):
                    raise ProtocolError(
                        f"fault target ({segment}, {lane}) outside the "
                        f"{config.nodes}x{config.lanes} grid"
                    )


# ---------------------------------------------------------------------------
# Handshake explorer
# ---------------------------------------------------------------------------

#: Joint handshake state: per-INC ``(phase, cycle - min(cycles))``.
_HandshakeJoint = Tuple[Tuple[HandshakePhase, int], ...]


@dataclass
class HandshakeReport:
    """Result of one exhaustive handshake exploration."""

    nodes: int
    states: int = 0
    edges: int = 0
    max_skew: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _handshake_sort_key(
    cells: _HandshakeJoint,
) -> Tuple[Tuple[str, int], ...]:
    return tuple((phase.value, cycle) for phase, cycle in cells)


def _canonical_handshake(
    cells: Sequence[Tuple[HandshakePhase, int]], symmetry: bool = False
) -> _HandshakeJoint:
    """Canonical form of a joint handshake state.

    Always normalises cycle counters to the ring minimum.  With
    ``symmetry`` the representative is additionally minimised over all
    ring rotations *and* the ring reflection — the handshake guards
    constrain both neighbours identically (:func:`guard_satisfied`
    checks ``left == required == right``), so its dynamics commute with
    the full dihedral group, not just rotations.
    """
    floor = min(cycle for _, cycle in cells)
    base = tuple((phase, cycle - floor) for phase, cycle in cells)
    if not symmetry:
        return base
    count = len(base)
    best = base
    best_key = _handshake_sort_key(base)
    for reflect in (False, True):
        oriented = (
            base if not reflect
            else tuple(base[(-i) % count] for i in range(count))
        )
        for rotation in range(count):
            candidate = tuple(
                oriented[(i - rotation) % count] for i in range(count)
            )
            floor = min(cycle for _, cycle in candidate)
            candidate = tuple(
                (phase, cycle - floor) for phase, cycle in candidate
            )
            key = _handshake_sort_key(candidate)
            if key < best_key:
                best, best_key = candidate, key
    return best


def explore_handshake(
    nodes: int, max_states: int = 100_000, symmetry: bool = False
) -> HandshakeReport:
    """Enumerate every reachable joint state of ``nodes`` handshaking INCs.

    Each INC runs rules 1-5 off its own clock; a step is one INC taking
    one clock edge.  Cycle counters are canonicalised relative to the
    ring minimum, so the reachable set is finite exactly when Lemma 1
    holds (skew stays bounded); a Lemma 1 violation is reported and the
    offending branch is not expanded further.  With ``symmetry`` the
    search also quotients by ring rotation and reflection (the
    handshake's full symmetry group), exploring one representative per
    orbit.
    """
    if nodes < 2:
        raise ProtocolError(
            f"handshake exploration needs >= 2 INCs, got {nodes}"
        )
    report = HandshakeReport(nodes=nodes)
    initial = _canonical_handshake(
        [(HandshakePhase.WORK, 0)] * nodes, symmetry
    )
    seen = {initial}
    frontier: deque[_HandshakeJoint] = deque([initial])
    while frontier:
        joint = frontier.popleft()
        report.states += 1
        stepped = 0
        for index in range(nodes):
            phase, cycle = joint[index]
            od, oc = BITS_OF_PHASE[phase]
            left_phase = joint[(index - 1) % nodes][0]
            right_phase = joint[(index + 1) % nodes][0]
            after, rule = handshake_step(
                HandshakeState(phase, od, oc),
                NeighbourBits(*BITS_OF_PHASE[left_phase]),
                NeighbourBits(*BITS_OF_PHASE[right_phase]),
            )
            if rule is None:
                continue  # guard not satisfied: this INC waits
            stepped += 1
            if (after.od, after.oc) != BITS_OF_PHASE[after.phase]:
                report.violations.append(
                    f"N={nodes} inc{index}: bits {(after.od, after.oc)} "
                    f"disagree with Gray code for phase {after.phase.value}"
                )
                continue
            cells = list(joint)
            cells[index] = (
                after.phase, cycle + (1 if rule.advances_cycle else 0)
            )
            skew = _max_neighbour_skew(cells)
            report.max_skew = max(report.max_skew, skew)
            if skew > 1:
                report.violations.append(
                    f"N={nodes} inc{index} rule {rule.rule}: neighbour "
                    f"cycle skew {skew} > 1 (Lemma 1)"
                )
                continue  # do not expand past a violation
            child = _canonical_handshake(cells, symmetry)
            report.edges += 1
            if child not in seen:
                seen.add(child)
                frontier.append(child)
                if len(seen) > max_states:
                    raise ExplorationError(
                        f"handshake N={nodes}: > {max_states} states"
                    )
        if stepped == 0:
            report.violations.append(
                f"N={nodes}: no INC has an enabled rule in {joint!r} "
                "(handshake wedge)"
            )
    return report


def _max_neighbour_skew(cells: Sequence[Tuple[HandshakePhase, int]]) -> int:
    count = len(cells)
    return max(
        abs(cells[i][1] - cells[(i + 1) % count][1]) for i in range(count)
    )


# ---------------------------------------------------------------------------
# Lifecycle explorer: world harness
# ---------------------------------------------------------------------------

def _zero_time() -> float:
    """Pinned clock: exploration is untimed, timers fire nondeterministically."""
    return 0.0


def exploration_config(nodes: int, lanes: int, **overrides: object) -> RMBConfig:
    """An :class:`RMBConfig` for exploration, allowing small/odd ``nodes``.

    :class:`RMBConfig` validation requires even ``N >= 4`` because the
    odd/even *handshake* needs consistent parity around the ring.  The
    lifecycle explorer runs synchronous compaction (no handshake), where
    any ``N >= 2`` is meaningful — so we validate against a legal node
    count and then patch the real one in.
    """
    legal_nodes = nodes if nodes >= 4 and nodes % 2 == 0 else 4
    defaults: Dict[str, object] = {
        "synchronous": True,
        "retry": RetryPolicy(jitter=0.0),
        "check_level": "off",
    }
    defaults.update(overrides)
    config = RMBConfig(nodes=legal_nodes, lanes=lanes, **defaults)  # type: ignore[arg-type]
    if legal_nodes != nodes:
        if nodes < 2:
            raise ProtocolError(f"exploration needs >= 2 nodes, got {nodes}")
        config = copy.copy(config)
        object.__setattr__(config, "nodes", nodes)
    return config


class _TimerBag:
    """Captures retry-timer callbacks instead of scheduling them.

    The explorer fires captured callbacks nondeterministically, which
    over-approximates every possible timer/tick interleaving — delays
    and jitter become irrelevant, which is exactly right for a model
    checker (the properties must hold for *any* timing).
    """

    def __init__(self) -> None:
        self.callbacks: List[object] = []

    def schedule(self, delay: float, callback: object) -> None:
        self.callbacks.append(callback)

    def message_ids(self) -> List[int]:
        return sorted(
            callback._message.message_id  # type: ignore[attr-defined]
            for callback in self.callbacks
        )

    def _take(self, message_id: int) -> Callable[[], None]:
        for index, callback in enumerate(self.callbacks):
            if callback._message.message_id == message_id:  # type: ignore[attr-defined]
                self.callbacks.pop(index)
                return callback  # type: ignore[return-value]
        raise ProtocolError(f"no pending timer for msg{message_id}")

    def fire(self, message_id: int) -> None:
        self._take(message_id)()

    def drop(self, message_id: int) -> None:
        """Discard a pending timer without firing it (sabotage only)."""
        self._take(message_id)


class _World:
    """One sealed protocol universe: grid + engines + captured timers."""

    def __init__(
        self,
        config: RMBConfig,
        messages: Sequence[Message],
        options: Optional[ExploreOptions] = None,
    ) -> None:
        self.config = config
        self.options = options or ExploreOptions()
        self.messages = tuple(messages)
        self.grid = SegmentGrid(config.nodes, config.lanes)
        self.buses: Dict[int, VirtualBus] = {}
        self.timers = _TimerBag()
        self.engine = RoutingEngine(
            config, self.grid, self.buses,
            now=_zero_time, schedule=self.timers.schedule, rng=None,
        )
        self.compaction = CompactionEngine(config, self.grid, self.buses)
        # Reference scan: exploration states must not depend on the
        # incremental dirty-set (which the signature ignores).
        self.compaction.incremental = False
        self.cycle = 0
        self.fails_used = 0
        for message in messages:
            self.engine.submit(message)

    # -- actions ---------------------------------------------------------
    def _fault_moves(self) -> List[Action]:
        options = self.options
        if options.fault_budget <= 0:
            return []
        if options.fault_targets is not None:
            targets: Iterable[Tuple[int, int]] = options.fault_targets
        else:
            targets = (
                (segment, lane)
                for segment in range(self.config.nodes)
                for lane in range(self.config.lanes)
            )
        moves: List[Action] = []
        for segment, lane in targets:
            health = self.grid.health(segment, lane)
            if health is PortHealth.OK:
                if self.fails_used < options.fault_budget:
                    moves.append(("fail", segment, lane))
            else:
                if health is PortHealth.DYING:
                    moves.append(("kill", segment, lane))
                moves.append(("repair", segment, lane))
        return moves

    def actions(self) -> List[Action]:
        if self.engine.pending() == 0 and not self.timers.callbacks:
            return []  # quiescent: absorbing state, even mid-fault
        enabled: List[Action] = [("tick",), ("compact",)]
        enabled.extend(("timer", mid) for mid in self.timers.message_ids())
        enabled.extend(self._fault_moves())
        return enabled

    def apply(self, action: Action) -> Optional[str]:
        """Execute one action; returns a violation description or ``None``."""
        kind = action[0]
        if kind == "tick":
            self.engine.flit_tick()
            return None
        if kind == "timer":
            message_id = int(action[1])  # type: ignore[arg-type]
            if self.options.sabotage == "drop-retry-timer":
                # Severed (retry, retry_timer) -> queued arc: the timer
                # evaporates and the message waits forever.
                self.timers.drop(message_id)
                return None
            self.timers.fire(message_id)
            return None
        if kind in _FAULT_KINDS:
            segment = int(action[1])  # type: ignore[arg-type]
            lane = int(action[2])  # type: ignore[arg-type]
            if kind == "fail":
                if fail_target(self.grid, segment, lane):
                    self.fails_used += 1
            elif kind == "kill":
                kill_target(self.grid, self.engine, segment, lane)
            else:
                repair_target(self.grid, segment, lane)
            return None
        if kind == "rotate":
            self.rotate(int(action[1]))  # type: ignore[arg-type]
            return None
        # Compaction pass: snapshot established buses (and the pre-pass
        # health under each hop) for Theorem 1.
        before = {
            bus.bus_id: (
                list(bus.hops),
                [
                    self.grid.health(bus.segment_index(hop), bus.hops[hop])
                    for hop in range(len(bus.hops))
                ],
            )
            for bus in self.buses.values()
            if bus.phase in _ESTABLISHED_PHASES
        }
        self.compaction.global_pass(self.cycle)
        self.cycle += 1
        if self.options.sabotage == "lift-established-hop":
            self._sabotage_lift()
        for bus_id, (hops, healths) in before.items():
            bus = self.buses.get(bus_id)
            if bus is None or not bus.complete or len(bus.hops) != len(hops):
                return (
                    f"theorem1: established bus {bus_id} broken by "
                    f"compaction ({'gone' if bus is None else bus.describe()})"
                )
            for hop, old_lane in enumerate(hops):
                if bus.hops[hop] > old_lane and healths[hop] is PortHealth.OK:
                    # Upward moves are legal only as evacuation off a
                    # non-OK segment; from a healthy one they break the
                    # downward-only guarantee.
                    return (
                        f"theorem1: {bus.describe()} hop {hop} rose "
                        f"{old_lane} -> {bus.hops[hop]} during compaction"
                    )
        return None

    def _sabotage_lift(self) -> None:
        """Test-only corruption: raise one established hop off a healthy
        segment, exactly the move Theorem 1 forbids."""
        for bus in self.buses.values():
            if bus.phase not in _ESTABLISHED_PHASES:
                continue
            for hop in bus.held_hops():
                lane = bus.hops[hop]
                segment = bus.segment_index(hop)
                if (lane + 1 < self.config.lanes
                        and self.grid.is_usable(segment, lane + 1)):
                    self.grid.move_up(segment, lane, bus.bus_id)
                    bus.hops[hop] = lane + 1
                    return

    # -- symmetry --------------------------------------------------------
    def rotate(self, rotation: int) -> None:
        """Rotate the whole world ``rotation`` ring positions in place.

        The concrete realisation of one symmetry-group element: node
        ``i`` moves to ``(i + rotation) % N`` and message ``m`` is
        relabelled to ``pi[m]`` (the structural bijection from
        :func:`_rotation_relabelling`).  Afterwards
        ``raw_signature()`` equals ``_transform_signature`` of the old
        signature — the surgery and the symbolic transform are two views
        of the same group action, and the tests assert they agree.

        On an even ring the compaction cycle counter also advances by
        ``rotation``; on an odd ring it stays put (see
        :func:`_transform_signature`).  Only primary state turns, after
        the parked headers are settled; the grid and both engines then
        rebuild (DESIGN.md §9 P8).
        """
        nodes = self.config.nodes
        rotation %= nodes
        if rotation == 0:
            return
        relabelling = _rotation_relabelling(self.messages, nodes, rotation)
        if relabelling is None:
            raise ProtocolError(
                f"rotation {rotation} is not a symmetry of this scenario"
            )
        by_id = {message.message_id: message for message in self.messages}
        replace = {
            message.message_id: by_id[relabelling[message.message_id]]
            for message in self.messages
        }

        def turn(segment: int) -> int:
            return (segment + rotation) % nodes

        def turn_rows(rows: list) -> list:
            return [rows[(s - rotation) % nodes] for s in range(nodes)]

        engine = self.engine
        engine.settle_stalls()
        grid = self.grid
        grid._occupant = turn_rows(grid._occupant)
        grid._health = turn_rows(grid._health)

        # Engine: node-indexed vectors rotate, message references and
        # message-id keys relabel.  Bus ids, the bus dict order, and the
        # per-bus geometry are untouched — a bus's ring position derives
        # from its message's source, so swapping the message and
        # rebinding its endpoints moves it.
        engine._queues = [deque(replace[m.message_id] for m in queue)
                          for queue in turn_rows(engine._queues)]
        engine._deferred = [deque(replace[m.message_id] for m in queue)
                            for queue in turn_rows(engine._deferred)]
        engine._tx_active = turn_rows(engine._tx_active)
        engine._rx_active = turn_rows(engine._rx_active)
        engine._awaiting_retry_by_node = turn_rows(
            engine._awaiting_retry_by_node)
        engine._node_retry_totals = turn_rows(engine._node_retry_totals)
        engine._rx_holders = {
            bus_id: {turn(node) for node in holders}
            for bus_id, holders in engine._rx_holders.items()
        }
        for record in engine.records.values():
            record.message = replace[record.message.message_id]
            record.tap_delivered_at = {
                turn(node): when
                for node, when in record.tap_delivered_at.items()
            }
        engine.records = {
            record.message.message_id: record
            for record in sorted(engine.records.values(),
                                 key=lambda r: r.message.message_id)
        }
        engine._lifecycle = {
            relabelling[mid]: state
            for mid, state in sorted(engine._lifecycle.items())
        }
        for bus in self.buses.values():
            bus.message = replace[bus.message.message_id]
            bus.rebuild_derived()
        for callback in self.timers.callbacks:
            callback._message = replace[  # type: ignore[attr-defined]
                callback._message.message_id  # type: ignore[attr-defined]
            ]
        if nodes % 2 == 0:
            self.cycle += rotation
        grid.rebuild_derived()
        self.compaction.rebuild_derived()
        engine.rebuild_derived()

    # -- properties ------------------------------------------------------
    def check(self) -> List[str]:
        violations: List[str] = []
        try:
            validate_ports(self.grid, self.buses)
        except ProtocolError as exc:
            violations.append(f"table1: {exc}")
        try:
            check_grid_bus_agreement(self.grid, self.buses)
            check_bus_shapes(self.buses, self.config.lanes)
        except InvariantViolation as exc:
            violations.append(f"structure: {exc}")
        for bus in self.buses.values():
            if bus.phase in _ESTABLISHED_PHASES and (
                not bus.complete or bus.released_from is not None
            ):
                violations.append(
                    f"theorem1: established {bus.describe()} is not intact"
                )
        return violations

    # -- signature -------------------------------------------------------
    def raw_signature(self) -> Tuple[object, ...]:
        """The un-quotiented signature; see ``_transform_signature`` for
        the component layout and how symmetries act on it."""
        return self.engine.exploration_signature() + (
            tuple(self.timers.message_ids()),
            self.cycle & 1,
            tuple((segment, lane, health.value) for segment, lane, health
                  in self.grid.faulty_segments()),
            self.fails_used,
        )


# ---------------------------------------------------------------------------
# Symmetry quotient
# ---------------------------------------------------------------------------

#: One symmetry: (ring rotation r, message-id relabelling pi).  Applying
#: it maps node i -> (i + r) % N and message m -> pi[m].
GroupElement = Tuple[int, Dict[int, int]]

#: Internal: group elements with a precomputed is-identity flag.
_Prepared = Tuple[int, Dict[int, int], bool]


def _rotation_relabelling(
    messages: Sequence[Message], nodes: int, rotation: int
) -> Optional[Dict[int, int]]:
    """Message-id bijection realising ``rotation``, or ``None``.

    Rotating the ring by ``r`` maps a message ``(source, destination)``
    to ``((source+r) % N, (destination+r) % N)``; the rotation is a
    symmetry of the scenario only if some bijection of message ids makes
    the rotated multiset identical to the original.  Messages are
    grouped into classes by their full route shape; within matched
    classes ids are paired in sorted order, which makes the chosen maps
    compose (sorted-order pairing of class bijections is closed under
    composition), so the returned elements always form a group.
    """
    def shape(message: Message, shift: int) -> Tuple[object, ...]:
        return (
            (message.source + shift) % nodes,
            (message.destination + shift) % nodes,
            message.data_flits,
            message.created_at,
            tuple((stop + shift) % nodes
                  for stop in message.extra_destinations),
        )

    classes: Dict[Tuple[object, ...], List[int]] = {}
    rotated: Dict[Tuple[object, ...], List[int]] = {}
    for message in messages:
        classes.setdefault(shape(message, 0), []).append(message.message_id)
        rotated.setdefault(
            shape(message, rotation), []
        ).append(message.message_id)
    if set(classes) != set(rotated):
        return None
    relabelling: Dict[int, int] = {}
    for key, targets in classes.items():
        sources = rotated[key]
        if len(sources) != len(targets):
            return None
        for source_id, target_id in zip(sorted(sources), sorted(targets)):
            relabelling[source_id] = target_id
    return relabelling


def symmetry_group(
    config: RMBConfig,
    messages: Sequence[Message],
    fault_targets: Optional[Tuple[Tuple[int, int], ...]] = None,
) -> List[GroupElement]:
    """Valid ring-rotation symmetries of a lifecycle scenario.

    Always contains the identity.  A rotation qualifies when the message
    multiset maps onto itself (see :func:`_rotation_relabelling`) and,
    if fault moves are restricted to specific targets, when it also
    preserves the target set.  Reflections are *not* considered: the
    routing ring is unidirectional (headers travel clockwise), so
    reflection does not map protocol states onto protocol states.

    The elements need not commute with the engine's dynamics (its
    intra-tick serialisation is tied to absolute node indices, so they
    cannot); the explorer compensates by expanding every stored state
    under each element concretely (:meth:`_World.rotate`).  What *is*
    required is that the transforms form a group action on signatures,
    which the sorted-order relabelling and the parity rule in
    :func:`_transform_signature` guarantee for any ring size.
    """
    nodes = config.nodes
    target_set = None if fault_targets is None else set(fault_targets)
    group: List[GroupElement] = []
    for rotation in range(nodes):
        if target_set is not None:
            moved = {((s + rotation) % nodes, lane) for s, lane in target_set}
            if moved != target_set:
                continue
        relabelling = _rotation_relabelling(messages, nodes, rotation)
        if relabelling is not None:
            group.append((rotation, relabelling))
    return group


def _prepare_group(group: Sequence[GroupElement]) -> List[_Prepared]:
    return [
        (
            rotation,
            relabelling,
            rotation == 0 and all(k == v for k, v in relabelling.items()),
        )
        for rotation, relabelling in group
    ]


def _transform_signature(
    sig: Tuple[object, ...], nodes: int, rotation: int,
    relabelling: Dict[int, int],
) -> Tuple[object, ...]:
    """Apply one symmetry to a raw signature, purely structurally.

    Layout (indices into ``sig``): 0 queues, 1 deferred, 2 bus order,
    3 bus states, 4 stalls, 5 records, 6 tx_active, 7 rx_active,
    8 awaiting_retry, 9 node retry totals (empty without a node budget),
    10 timer ids, 11 compaction-cycle parity, 12 fault health,
    13 fails_used.  Node-indexed tuples rotate; message ids relabel;
    sorted collections re-sort.  On an even ring the cycle
    parity shifts with the rotation (the D2 alternation rule keys on
    ``(segment + lane + cycle) % 2``, so rotating segments by ``r``
    matches advancing the cycle by ``r`` — and ``r mod 2`` respects
    composition exactly when ``N`` is even); on an odd ring the parity
    stays fixed, the only choice that still composes as a group action.
    """
    (queues, deferred, bus_order, bus_states, stalls, records,
     tx_active, rx_active, awaiting, retry_totals, timer_ids, parity,
     health, fails_used) = sig

    def rotate_nodes(values: Tuple[object, ...]) -> Tuple[object, ...]:
        return tuple(values[(i - rotation) % nodes] for i in range(nodes))

    return (
        rotate_nodes(tuple(
            tuple(relabelling[mid] for mid in queue)
            for queue in queues  # type: ignore[union-attr]
        )),
        rotate_nodes(tuple(
            tuple(relabelling[mid] for mid in queue)
            for queue in deferred  # type: ignore[union-attr]
        )),
        tuple(relabelling[mid] for mid in bus_order),  # type: ignore[union-attr]
        tuple(
            (
                relabelling[mid],
                phase,
                hops,
                signal_position,
                data_sent,
                released_from,
                tuple(sorted(
                    (node + rotation) % nodes
                    for node in holders  # type: ignore[union-attr]
                )),
            )
            for (mid, phase, hops, signal_position, data_sent,
                 released_from, holders) in bus_states  # type: ignore[union-attr]
        ),
        tuple(sorted(
            (relabelling[mid], ticks)
            for mid, ticks in stalls  # type: ignore[union-attr]
        )),
        tuple(sorted(
            (relabelling[entry[0]],) + tuple(entry[1:])
            for entry in records  # type: ignore[union-attr]
        )),
        rotate_nodes(tx_active),  # type: ignore[arg-type]
        rotate_nodes(rx_active),  # type: ignore[arg-type]
        rotate_nodes(awaiting),  # type: ignore[arg-type]
        rotate_nodes(retry_totals) if retry_totals else (),  # type: ignore[arg-type]
        tuple(sorted(
            relabelling[mid] for mid in timer_ids  # type: ignore[union-attr]
        )),
        ((parity + rotation) & 1 if nodes % 2 == 0  # type: ignore[operator]
         else parity),
        tuple(sorted(
            ((segment + rotation) % nodes, lane, value)
            for segment, lane, value in health  # type: ignore[union-attr]
        )),
        fails_used,
    )


def _canonical_signature(
    sig: Tuple[object, ...], nodes: int, group: Sequence[_Prepared]
) -> Tuple[object, ...]:
    """Orbit representative: the minimum transformed signature."""
    best = None
    for rotation, relabelling, is_identity in group:
        candidate = (
            sig if is_identity
            else _transform_signature(sig, nodes, rotation, relabelling)
        )
        if best is None or candidate < best:  # type: ignore[operator]
            best = candidate
    assert best is not None  # group always contains the identity
    return best


def _digest(canonical: Tuple[object, ...]) -> bytes:
    """128-bit hash-compaction digest of a canonical signature."""
    return hashlib.blake2b(
        repr(canonical).encode(), digest_size=16
    ).digest()


def _state_key(
    world: _World, group: Sequence[_Prepared], options: ExploreOptions
) -> StateKey:
    canonical = _canonical_signature(
        world.raw_signature(), world.config.nodes, group
    )
    return _digest(canonical) if options.hash_compact else canonical


# ---------------------------------------------------------------------------
# Fast world cloning
# ---------------------------------------------------------------------------

class _Cloner:
    """Pickle-based world forking with shared immutables.

    Forking via pickle is ~2x faster than ``copy.deepcopy`` on these
    object graphs, and persistent ids let every clone share the frozen
    :class:`RMBConfig` and the (never-mutated) :class:`Message` objects
    instead of duplicating them — the frontier stores compressed pickled
    worlds, so the per-state footprint matters.
    """

    def __init__(self, config: RMBConfig, messages: Sequence[Message]) -> None:
        self._objects: List[object] = [config, *messages]
        self._ids = {id(obj): index
                     for index, obj in enumerate(self._objects)}

    def dumps(self, world: _World) -> bytes:
        world.engine.settle_stalls()  # a clone parks no header
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        ids = self._ids
        pickler.persistent_id = (  # type: ignore[method-assign]
            lambda obj: ids.get(id(obj))
        )
        pickler.dump(world)
        return buffer.getvalue()

    def loads(self, data: bytes) -> _World:
        unpickler = pickle.Unpickler(io.BytesIO(data))
        objects = self._objects
        unpickler.persistent_load = (  # type: ignore[method-assign]
            lambda pid: objects[pid]
        )
        world = unpickler.load()
        assert isinstance(world, _World)
        return world


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    """A violating path, as a deterministic replayable action script.

    ``actions`` is the exact action sequence from the initial state;
    ``state_key`` is the canonical key (signature or digest) of the
    final state, so a replay can prove it reached the same place.
    """

    kind: str          # "violation" | "deadlock"
    description: str
    actions: Tuple[Action, ...]
    state_key: StateKey = None

    def script(self) -> str:
        """The action path, one action per line (for logs and reports)."""
        return "\n".join(_describe(action) for action in self.actions)


@dataclass
class ReplayResult:
    """Outcome of driving a script through a fresh world."""

    violations: List[str]
    state_key: StateKey
    pending: int           # engine.pending() at the end of the script
    armed_timers: int      # captured retry timers at the end
    world: _World          # the final world, for further inspection

    def matches(self, trace: Counterexample) -> bool:
        """True when the replay reached the trace's recorded state."""
        return self.state_key == trace.state_key


def run_script(
    config: RMBConfig,
    messages: Sequence[Message],
    actions: Sequence[Action],
    options: Optional[ExploreOptions] = None,
) -> ReplayResult:
    """Apply a fixed action script to a fresh world, collecting checks.

    This is the deterministic single-path twin of
    :func:`explore_lifecycle`: same harness, same invariant checks, no
    forking.  Used by the counterexample replayer and by seeded
    fail/evacuate/repair conformance tests.
    """
    options = options or ExploreOptions()
    options.validate(config)
    group = _prepare_group(
        symmetry_group(config, messages, options.fault_targets)
        if options.symmetry else [(0, {})]
    )
    world = _World(config, messages, options)
    violations = [f"initial: {problem}" for problem in world.check()]
    for action in actions:
        step_violation = world.apply(action)
        if step_violation:
            violations.append(f"{_describe(action)}: {step_violation}")
        violations.extend(
            f"after {_describe(action)}: {problem}"
            for problem in world.check()
        )
    return ReplayResult(
        violations=violations,
        state_key=_state_key(world, group, options),
        pending=world.engine.pending(),
        armed_timers=len(world.timers.callbacks),
        world=world,
    )


def replay_counterexample(
    config: RMBConfig,
    messages: Sequence[Message],
    trace: Counterexample,
    options: Optional[ExploreOptions] = None,
) -> ReplayResult:
    """Replay a checker counterexample through the real engines.

    Must be called with the same scenario and options the exploration
    ran with; ``result.matches(trace)`` then confirms the replay landed
    on the recorded violating state.
    """
    return run_script(config, messages, trace.actions, options)


# ---------------------------------------------------------------------------
# Lifecycle explorer: search
# ---------------------------------------------------------------------------

@dataclass
class LifecycleReport:
    """Result of one exhaustive lifecycle exploration."""

    label: str
    states: int = 0                  # canonical states explored
    edges: int = 0
    completed_runs: int = 0          # reachable quiescent states
    violations: List[str] = field(default_factory=list)
    deadlocks: List[str] = field(default_factory=list)
    traces: List[Counterexample] = field(default_factory=list)
    group_order: int = 1             # symmetry group size (1 = exact)
    mode: str = "exact"              # seen-set representation
    fault_edges: int = 0             # edges taken by fail/kill/repair
    state_keys: List[StateKey] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.deadlocks


_MAX_REPORTED = 20


def explore_lifecycle(
    config: RMBConfig,
    messages: Sequence[Message],
    label: str = "",
    max_states: int = 100_000,
    options: Optional[ExploreOptions] = None,
) -> LifecycleReport:
    """Enumerate every reachable joint protocol state of ``messages``.

    From each state the explorer forks the world and tries every
    enabled action (tick / compaction pass / fire one retry timer /
    fault moves when budgeted), checking the per-state properties on
    each successor and finally the graph-level deadlock-freedom
    property over the whole reachable set.  ``options`` selects the
    scaling modes; the default reproduces the exact PR-5 explorer.
    """
    options = options or ExploreOptions()
    options.validate(config)
    report = LifecycleReport(
        label=label or f"{config.nodes}x{config.lanes}",
        mode="hash" if options.hash_compact else "exact",
    )
    group = _prepare_group(
        symmetry_group(config, messages, options.fault_targets)
        if options.symmetry else [(0, {})]
    )
    report.group_order = len(group)

    root = _World(config, messages, options)
    cloner = _Cloner(config, messages)
    for problem in root.check():
        report.violations.append(f"initial: {problem}")

    root_key = _state_key(root, group, options)
    index: Dict[StateKey, int] = {root_key: 0}
    keys: List[StateKey] = [root_key]
    parents: List[Optional[Tuple[int, Action, int]]] = [None]
    successors: List[List[Tuple[int, bool]]] = [[]]
    is_goal: List[bool] = [_is_goal(root)]
    frontier: deque[Tuple[int, bytes]] = deque(
        [(0, zlib.compress(cloner.dumps(root), 1))]
    )

    def record_trace(kind: str, description: str, state: int,
                     extra: Optional[Tuple[int, Action, int]] = None) -> None:
        """Record a replayable path to ``state``.

        ``extra`` is the (parent, action, rotation) edge that produced
        the state when the violation fired on the edge itself; deadlock
        traces follow the BFS tree via ``parents`` alone.  Tree edges
        always connect the *concrete* stored worlds — an edge expanded
        from a rotated orbit member contributes a ``("rotate", r)``
        pseudo-action before its protocol action — so the script
        replays exactly even under symmetry quotienting.
        """
        if len(report.traces) >= _MAX_REPORTED:
            return
        path: List[Action] = []
        cursor: Optional[Tuple[int, Action, int]] = (
            extra if extra is not None else parents[state]
        )
        while cursor is not None:
            parent, action, rotation = cursor
            path.append(action)
            if rotation:
                path.append(("rotate", rotation))
            cursor = parents[parent]
        path.reverse()
        report.traces.append(Counterexample(
            kind=kind, description=description,
            actions=tuple(path), state_key=keys[state],
        ))

    while frontier:
        state, blob = frontier.popleft()
        report.states += 1
        data = zlib.decompress(blob)
        world = cloner.loads(data)
        # Orbit members to expand: the stored world plus, in symmetry
        # mode, its image under every group element producing a distinct
        # signature.  The engine's intra-tick serialisation is not
        # rotation-covariant, so a rotated member's successors are not
        # derivable from the stored member's — each must run concretely.
        member_rotations = [0]
        if len(group) > 1:
            sig = world.raw_signature()
            member_sigs = {sig}
            for rotation, relabelling, is_identity in group:
                if is_identity:
                    continue
                image = _transform_signature(
                    sig, config.nodes, rotation, relabelling
                )
                if image not in member_sigs:
                    member_sigs.add(image)
                    member_rotations.append(rotation)
        for member_rotation in member_rotations:
            if member_rotation == 0:
                member, member_data = world, data
            else:
                member = cloner.loads(data)
                member.rotate(member_rotation)
                member_data = cloner.dumps(member)
            enabled = member.actions()
            for position, action in enumerate(enabled):
                child = member if position == 0 else cloner.loads(member_data)
                step_violation = child.apply(action)
                problems = child.check()
                child_key = _state_key(child, group, options)
                child_index = index.get(child_key)
                if child_index is None:
                    child_index = len(keys)
                    index[child_key] = child_index
                    keys.append(child_key)
                    parents.append((state, action, member_rotation))
                    successors.append([])
                    is_goal.append(_is_goal(child))
                    frontier.append(
                        (child_index, zlib.compress(cloner.dumps(child), 1))
                    )
                    if len(keys) > max_states:
                        raise ExplorationError(
                            f"{report.label}: > {max_states} reachable states"
                        )
                if step_violation:
                    if len(report.violations) < _MAX_REPORTED:
                        report.violations.append(
                            f"{_describe(action)}: {step_violation}"
                        )
                    record_trace("violation", step_violation, child_index,
                                 extra=(state, action, member_rotation))
                for problem in problems:
                    if len(report.violations) < _MAX_REPORTED:
                        report.violations.append(
                            f"after {_describe(action)}: {problem}"
                        )
                    record_trace("violation", problem, child_index,
                                 extra=(state, action, member_rotation))
                is_fault = action[0] in _FAULT_KINDS
                if is_fault:
                    report.fault_edges += 1
                successors[state].append((child_index, is_fault))
                report.edges += 1

    report.completed_runs = sum(is_goal)
    stuck = _find_deadlocks(successors, is_goal)
    report.deadlocks = [
        f"state #{state} cannot reach quiescence or a retry timer "
        "by protocol moves alone"
        for state in stuck[:_MAX_REPORTED]
    ]
    for state in stuck[:_MAX_REPORTED]:
        record_trace("deadlock",
                     f"state #{state} cannot reach a goal state", state)
    if options.keep_state_keys:
        report.state_keys = keys
    return report


def _is_goal(world: _World) -> bool:
    """Goal for deadlock freedom: quiescent, or a retry timer is armed."""
    return world.engine.pending() == 0 or bool(world.timers.callbacks)


def _describe(action: Action) -> str:
    kind = action[0]
    if kind == "timer":
        return f"timer(msg{action[1]})"
    if kind == "rotate":
        return f"rotate({action[1]})"
    if kind in _FAULT_KINDS:
        return f"{kind}({action[1]},{action[2]})"
    return str(kind)


def _find_deadlocks(
    successors: Sequence[Sequence[Tuple[int, bool]]],
    is_goal: Sequence[bool],
) -> List[int]:
    """States that cannot reach any goal state (backward closure).

    Only protocol edges count: a fault move is the *environment*
    breaking or repairing hardware, and liveness must never depend on
    the environment cooperating.  (This is also what keeps the known
    4x1 wedge flagged when fault moves are enabled — ``kill`` would
    "free" it by tearing a bus down.)
    """
    count = len(successors)
    predecessors: List[List[int]] = [[] for _ in range(count)]
    for state, children in enumerate(successors):
        for child, is_fault in children:
            if not is_fault:
                predecessors[child].append(state)
    can_reach = [bool(is_goal[state]) for state in range(count)]
    work = deque(state for state in range(count) if can_reach[state])
    while work:
        state = work.popleft()
        for previous in predecessors[state]:
            if not can_reach[previous]:
                can_reach[previous] = True
                work.append(previous)
    return [state for state in range(count) if not can_reach[state]]


# ---------------------------------------------------------------------------
# Scenario sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One lifecycle-exploration configuration."""

    label: str
    nodes: int
    lanes: int
    routes: Tuple[Tuple[int, int], ...]
    data_flits: int = 1
    header_timeout: Optional[float] = 3.0
    max_retries: Optional[int] = 1
    extend_up: bool = True

    def config(self) -> RMBConfig:
        return exploration_config(
            self.nodes,
            self.lanes,
            retry=RetryPolicy(jitter=0.0, header_timeout=self.header_timeout,
                              max_retries=self.max_retries),
            extend_up=self.extend_up,
        )

    def messages(self) -> List[Message]:
        return [
            Message(message_id=i, source=src, destination=dst,
                    data_flits=self.data_flits)
            for i, (src, dst) in enumerate(self.routes)
        ]


def default_scenarios() -> List[Scenario]:
    """The E30 sweep: N <= 5, k <= 3, <= 3 in-flight messages."""
    return [
        Scenario("2x1-pair", 2, 1, ((0, 1), (1, 0))),
        Scenario("3x2-ring", 3, 2, ((0, 1), (1, 2), (2, 0))),
        Scenario("4x1-cross", 4, 1, ((0, 2), (1, 3))),
        Scenario("4x2-overlap", 4, 2, ((0, 2), (1, 3), (2, 0))),
        Scenario("4x3-overlap", 4, 3, ((0, 2), (1, 3), (3, 1))),
        Scenario("5x2-odd", 5, 2, ((0, 2), (2, 4), (4, 1))),
        Scenario("5x3-odd", 5, 3, ((0, 3), (2, 0), (3, 1))),
    ]


def smoke_scenarios() -> List[Scenario]:
    """Small configurations for the CI smoke job (N=3, k=2)."""
    return [
        Scenario("3x2-pair", 3, 2, ((0, 1), (1, 0))),
        Scenario("3x2-ring", 3, 2, ((0, 1), (1, 2), (2, 0))),
    ]


def fault_scenarios() -> List[Scenario]:
    """The fault-exploration sweep: deadlock freedom under degradation.

    Run with ``fault_budget >= 1`` these verify that every reachable
    state — including mid-outage and post-repair ones — can still reach
    quiescence or a retry timer by protocol moves alone, at N up to 6.
    """
    return [
        Scenario("3x2-pair", 3, 2, ((0, 1), (1, 0))),
        Scenario("4x1-cross", 4, 1, ((0, 2), (1, 3))),
        Scenario("4x2-ring", 4, 2, ((0, 1), (1, 2), (2, 3), (3, 0))),
        Scenario("6x2-tri", 6, 2, ((0, 2), (2, 4), (4, 0))),
    ]


def scale_scenario() -> Scenario:
    """The E31 scale target: N=8, k=4, rotation-symmetric load.

    Six messages — two span-3 and four span-5 routes — forming a
    rotation-by-4-invariant pattern (symmetry group order 2).  The
    long wrapping spans keep the lanes contended: 249,792 exact
    states folding to 131,375 canonical ones, where hash compaction
    cuts peak memory ~7x (EXPERIMENTS.md E31).  Run via
    ``python -m repro.cli explore --scale`` (minutes, offline — not
    part of the CI smoke set).
    """
    return Scenario(
        "8x4-scale", 8, 4,
        ((0, 3), (4, 7), (1, 4), (5, 0), (2, 7), (6, 3)),
    )


def deadlock_scenario() -> Scenario:
    """A known circular wait, used to prove the detector has teeth.

    Four messages each span half a 4-node single-lane ring; every
    header holds its own output segment while waiting for the next
    node's, which the next message holds.  With ``header_timeout``
    disabled nothing ever backs off, so the wedge is permanent — the
    explorer must flag it.  (D8's timeout exists precisely because the
    paper leaves this corner undefined.)
    """
    return Scenario(
        "4x1-wedge", 4, 1, ((0, 2), (1, 3), (2, 0), (3, 1)),
        header_timeout=None, max_retries=None,
    )


@dataclass
class SweepReport:
    """Aggregate of one full exploration sweep."""

    handshake: List[HandshakeReport] = field(default_factory=list)
    lifecycle: List[LifecycleReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.handshake) and all(
            r.ok for r in self.lifecycle
        )

    @property
    def total_states(self) -> int:
        return sum(r.states for r in self.handshake) + sum(
            r.states for r in self.lifecycle
        )

    def lines(self) -> List[str]:
        out = []
        for hs in self.handshake:
            status = "ok" if hs.ok else f"{len(hs.violations)} VIOLATIONS"
            out.append(
                f"handshake N={hs.nodes}: {hs.states} states, "
                f"{hs.edges} edges, max skew {hs.max_skew} [{status}]"
            )
        for lc in self.lifecycle:
            problems = len(lc.violations) + len(lc.deadlocks)
            status = "ok" if lc.ok else f"{problems} PROBLEMS"
            extras = ""
            if lc.group_order > 1 or lc.mode != "exact" or lc.fault_edges:
                parts = []
                if lc.group_order > 1:
                    parts.append(f"sym x{lc.group_order}")
                if lc.mode != "exact":
                    parts.append(lc.mode)
                if lc.fault_edges:
                    parts.append(f"{lc.fault_edges} fault edges")
                extras = " (" + ", ".join(parts) + ")"
            out.append(
                f"lifecycle {lc.label}: {lc.states} states, {lc.edges} "
                f"edges, {lc.completed_runs} quiescent{extras} [{status}]"
            )
            for violation in lc.violations:
                out.append(f"  violation: {violation}")
            for deadlock in lc.deadlocks:
                out.append(f"  deadlock: {deadlock}")
        return out


def explore_all(
    handshake_nodes: Iterable[int] = (2, 3, 4, 5),
    scenarios: Optional[Sequence[Scenario]] = None,
    max_states: int = 100_000,
    options: Optional[ExploreOptions] = None,
) -> SweepReport:
    """Run the full default sweep: handshake sizes plus lifecycle scenarios."""
    options = options or ExploreOptions()
    report = SweepReport()
    for nodes in handshake_nodes:
        report.handshake.append(
            explore_handshake(nodes, max_states=max_states,
                              symmetry=options.symmetry)
        )
    for scenario in (default_scenarios() if scenarios is None else scenarios):
        report.lifecycle.append(
            explore_lifecycle(
                scenario.config(), scenario.messages(),
                label=scenario.label, max_states=max_states,
                options=options,
            )
        )
    return report
