"""The two-ring RMB as a :class:`RingFabric` route-map instance.

Realises the paper's Section 2.1 remark that "one may like to organise
the communication as two parallel unidirectional rings": a clockwise and
a counter-clockwise ring on one shared simulator, each message routed
the short way round.  The counter-clockwise ring is an ordinary
:class:`~repro.core.network.RMBRing` over mirrored node indices
(``i -> (N - i) % N``), which turns counter-clockwise physical travel
into clockwise logical travel.

Everything composite — building the rings, submission routing,
draining, census, stats — comes from :class:`RingFabric`; this module
only contributes the mirror route map and the lane split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Optional, Tuple

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.errors import ProtocolError
from repro.hier.fabric import Hop, RingFabric, RouteMap

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.wiring import Observability


@dataclass(frozen=True)
class MirrorRouteMap(RouteMap):
    """Shorter-span ring choice over a clockwise/mirrored-ring pair.

    A message whose clockwise span is at most half the ring goes on the
    ``cw`` ring unchanged (ties go clockwise, matching the original
    two-ring implementation); otherwise it goes on the ``ccw`` ring with
    every endpoint mirrored.
    """

    nodes: int

    def mirror(self, node: int) -> int:
        return (self.nodes - node) % self.nodes

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        clockwise_span = (message.destination - message.source) % self.nodes
        if clockwise_span <= self.nodes - clockwise_span:
            return (Hop(
                ring="cw",
                source=message.source,
                destination=message.destination,
                extra_destinations=message.extra_destinations,
            ),)
        return (Hop(
            ring="ccw",
            source=self.mirror(message.source),
            destination=self.mirror(message.destination),
            extra_destinations=tuple(
                self.mirror(tap) for tap in message.extra_destinations
            ),
        ),)


class TwoRingRMB(RingFabric):
    """Two unidirectional RMB rings sharing one simulator.

    Messages are routed on the ring that gives the shorter span; ties go
    clockwise.  ``config.lanes`` (even, at least 2) is split evenly
    between the directions: the ``cw`` ring (seed ``seed``) and the
    ``ccw`` ring (``seed + 1``).  ``trace_kinds`` is both rings' trace
    filter, as in :class:`RingFabric`: ``None`` records every kind, and
    the default records nothing.
    """

    def __init__(
        self,
        config: RMBConfig,
        seed: int = 0,
        probe_period: Optional[float] = None,
        obs: Optional["Observability"] = None,
        trace_kinds: Optional[AbstractSet[str]] = frozenset(),
    ) -> None:
        if config.lanes < 2 or config.lanes % 2:
            raise ProtocolError(
                f"two-ring RMB splits its lanes evenly between its rings "
                f"and needs an even count of at least 2, got {config.lanes}")
        ring_config = config.with_overrides(lanes=config.lanes // 2)
        super().__init__(
            MirrorRouteMap(config.nodes),
            [("cw", ring_config, seed), ("ccw", ring_config, seed + 1)],
            name="two-ring RMB", probe_period=probe_period, obs=obs,
            trace_kinds=trace_kinds,
        )
        self.nodes = config.nodes
