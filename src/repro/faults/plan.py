"""Deterministic fault plans — *what* fails, *when*, and how gracefully.

A :class:`FaultPlan` is an immutable schedule of fault events applied to
one RMB ring.  Three granularities mirror the hardware's failure domains:

* ``segment`` — one lane-segment ``(i, l)`` (a broken wire bundle);
* ``lane`` — a whole lane ``l`` around the ring (a failed bus driver rail);
* ``inc`` — one INC's switching logic plus all of its output segments
  (the cycle-control logic is assumed fail-operational, so the odd/even
  handshake keeps running and Lemma 1 is preserved — fault model F5).

Failures are announced: at ``time`` the targets turn DYING (no new claims,
compaction migrates established buses off make-before-break) and only
``grace`` ticks later DEAD (any remaining occupant is torn down and the
source Nacked).  Repairs return targets to OK.

Plans are plain data: seeded random generation (:meth:`FaultPlan.random`),
JSON round-tripping, and a compact CLI spec language (:func:`parse_spec`)
all produce the same event tuples, so a run is reproducible from its seed
and plan alone.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import FaultError
from repro.sim.rng import RandomStream

#: Default DYING -> DEAD window, in ticks.  Two default compaction cycles
#: on each parity — enough for one escape move under the D2 schedule.
DEFAULT_GRACE = 16.0


class FaultKind(enum.Enum):
    """Failure domain granularity."""

    SEGMENT = "segment"
    LANE = "lane"
    INC = "inc"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition.

    Attributes:
        time: simulation tick the event fires at.
        kind: failure domain (segment / lane / inc).
        action: ``"fail"`` or ``"repair"``.
        segment: segment index (``SEGMENT`` kind) or INC index (``INC``).
        lane: lane index (``SEGMENT`` and ``LANE`` kinds).
        grace: DYING -> DEAD delay for ``fail`` actions (ignored by
            repairs).
    """

    time: float
    kind: FaultKind
    action: str = "fail"
    segment: Optional[int] = None
    lane: Optional[int] = None
    grace: float = DEFAULT_GRACE

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultError(f"fault event time must be >= 0, got {self.time}")
        if self.action not in ("fail", "repair"):
            raise FaultError(f"unknown fault action {self.action!r}")
        if self.grace < 0:
            raise FaultError(f"grace must be >= 0, got {self.grace}")
        if self.kind is FaultKind.SEGMENT:
            if self.segment is None or self.lane is None:
                raise FaultError("segment faults need segment and lane")
        elif self.kind is FaultKind.LANE:
            if self.lane is None:
                raise FaultError("lane faults need a lane index")
        elif self.kind is FaultKind.INC:
            if self.segment is None:
                raise FaultError("INC faults need an INC index (as segment)")

    def validate(self, nodes: int, lanes: int) -> None:
        """Raise :class:`FaultError` unless the event fits the geometry."""
        if self.segment is not None and not 0 <= self.segment < nodes:
            raise FaultError(
                f"fault targets segment/INC {self.segment}, ring has "
                f"{nodes} nodes"
            )
        if self.lane is not None and not 0 <= self.lane < lanes:
            raise FaultError(
                f"fault targets lane {self.lane}, ring has {lanes} lanes"
            )

    def targets(self, nodes: int, lanes: int) -> tuple[tuple[int, int], ...]:
        """The ``(segment, lane)`` pairs this event touches."""
        if self.kind is FaultKind.SEGMENT:
            return ((self.segment % nodes, self.lane),)
        if self.kind is FaultKind.LANE:
            return tuple((segment, self.lane) for segment in range(nodes))
        return tuple((self.segment % nodes, lane) for lane in range(lanes))

    def to_dict(self) -> dict:
        data = {"time": self.time, "kind": self.kind.value,
                "action": self.action}
        if self.segment is not None:
            data["segment"] = self.segment
        if self.lane is not None:
            data["lane"] = self.lane
        if self.action == "fail":
            data["grace"] = self.grace
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, ValueError) as exc:
            raise FaultError(f"bad fault event {data!r}: {exc}") from exc
        return cls(
            time=float(data.get("time", 0.0)),
            kind=kind,
            action=data.get("action", "fail"),
            segment=data.get("segment"),
            lane=data.get("lane"),
            grace=float(data.get("grace", DEFAULT_GRACE)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of :class:`FaultEvent` rows."""

    events: tuple[FaultEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, nodes: int, lanes: int) -> None:
        for event in self.events:
            event.validate(nodes, lanes)

    def sorted_events(self) -> list[FaultEvent]:
        """Events in firing order (time, fail-before-repair, target)."""
        return sorted(
            self.events,
            key=lambda e: (e.time, e.action, e.kind.value,
                           -1 if e.segment is None else e.segment,
                           -1 if e.lane is None else e.lane),
        )

    def describe(self) -> str:
        """One line per event, for logs and the CLI."""
        lines = []
        for event in self.sorted_events():
            where = {
                FaultKind.SEGMENT: f"segment ({event.segment}, {event.lane})",
                FaultKind.LANE: f"lane {event.lane}",
                FaultKind.INC: f"INC {event.segment}",
            }[event.kind]
            grace = f" grace={event.grace:g}" if event.action == "fail" else ""
            lines.append(f"t={event.time:g} {event.action} {where}{grace}")
        return "\n".join(lines) if lines else "(empty fault plan)"

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([event.to_dict() for event in self.events],
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise FaultError("fault plan JSON must be a list of events")
        return cls(tuple(FaultEvent.from_dict(row) for row in rows))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        nodes: int,
        lanes: int,
        fraction: float,
        at: float,
        rng: RandomStream,
        grace: float = DEFAULT_GRACE,
        spread: float = 0.0,
        repair_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Fail a random ``fraction`` of all lane-segments.

        Args:
            fraction: share of the ``nodes * lanes`` segments to fail.
            at: earliest failure time.
            rng: seeded stream — same stream state, same plan.
            grace: DYING -> DEAD window per failure.
            spread: failures are spread uniformly over ``[at, at+spread]``.
            repair_after: if given, each segment is repaired this many
                ticks after it dies.
        """
        if not 0.0 <= fraction <= 1.0:
            raise FaultError(f"fraction must be in [0, 1], got {fraction}")
        population = [(segment, lane)
                      for segment in range(nodes) for lane in range(lanes)]
        count = round(fraction * len(population))
        chosen = rng.sample(population, count)
        events = []
        for segment, lane in chosen:
            time = at + (rng.uniform(0.0, spread) if spread > 0 else 0.0)
            events.append(FaultEvent(time=time, kind=FaultKind.SEGMENT,
                                     segment=segment, lane=lane, grace=grace))
            if repair_after is not None:
                events.append(FaultEvent(
                    time=time + grace + repair_after, kind=FaultKind.SEGMENT,
                    action="repair", segment=segment, lane=lane,
                ))
        return cls(tuple(events))


def parse_spec(spec: str, nodes: int, lanes: int,
               seed: int = 0) -> FaultPlan:
    """Build a plan from a CLI spec string.

    Three forms, composable with ``;`` (except the file form):

    * ``@path.json`` — load a JSON event list from a file;
    * ``random:FRACTION@TIME[~GRACE]`` — seeded random segment outages;
    * ``seg:S,L@T[~GRACE]`` / ``lane:L@T[~GRACE]`` / ``inc:I@T[~GRACE]``
      — one explicit failure; prefix with ``+`` for a repair
      (``+seg:S,L@T``).

    Example: ``"seg:3,2@50;lane:0@100~32;+seg:3,2@200"``.
    """
    spec = spec.strip()
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultError(f"cannot read fault plan file: {exc}") from exc
        plan = FaultPlan.from_json(text)
        plan.validate(nodes, lanes)
        return plan

    events: list[FaultEvent] = []
    rng = RandomStream(seed, name="fault-plan")
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        action = "fail"
        if chunk.startswith("+"):
            action = "repair"
            chunk = chunk[1:]
        try:
            head, _, when = chunk.partition("@")
            kind_name, _, args = head.partition(":")
            grace = DEFAULT_GRACE
            if "~" in when:
                when, _, grace_text = when.partition("~")
                grace = float(grace_text)
            time = float(when)
            if kind_name == "random":
                if action == "repair":
                    raise FaultError("random: entries cannot be repairs")
                events.extend(FaultPlan.random(
                    nodes, lanes, fraction=float(args), at=time,
                    rng=rng, grace=grace,
                ).events)
            elif kind_name == "seg":
                segment_text, _, lane_text = args.partition(",")
                events.append(FaultEvent(
                    time=time, kind=FaultKind.SEGMENT, action=action,
                    segment=int(segment_text), lane=int(lane_text),
                    grace=grace,
                ))
            elif kind_name == "lane":
                events.append(FaultEvent(
                    time=time, kind=FaultKind.LANE, action=action,
                    lane=int(args), grace=grace,
                ))
            elif kind_name == "inc":
                events.append(FaultEvent(
                    time=time, kind=FaultKind.INC, action=action,
                    segment=int(args), grace=grace,
                ))
            else:
                raise FaultError(f"unknown fault kind {kind_name!r}")
        except (ValueError, IndexError) as exc:
            raise FaultError(
                f"cannot parse fault spec entry {chunk!r}: {exc}"
            ) from exc
    plan = FaultPlan(tuple(events))
    plan.validate(nodes, lanes)
    return plan


def merge(plans: Iterable[FaultPlan]) -> FaultPlan:
    """Concatenate several plans into one."""
    events: list[FaultEvent] = []
    for plan in plans:
        events.extend(plan.events)
    return FaultPlan(tuple(events))


def total_failed_segments(plan: FaultPlan, nodes: int,
                          lanes: int) -> int:
    """Distinct segments ever failed by the plan (repairs ignored)."""
    failed: set[tuple[int, int]] = set()
    for event in plan.events:
        if event.action == "fail":
            failed.update(event.targets(nodes, lanes))
    return len(failed)
