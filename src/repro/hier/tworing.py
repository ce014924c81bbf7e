"""The two-ring RMB as a :class:`RingFabric` route-map instance.

Realises the paper's Section 2.1 remark that "one may like to organise
the communication as two parallel unidirectional rings": a clockwise and
a counter-clockwise ring on one shared simulator, each message routed
the short way round.  The counter-clockwise ring is an ordinary
:class:`~repro.core.network.RMBRing` over mirrored node indices
(``i -> (N - i) % N``), which turns counter-clockwise physical travel
into clockwise logical travel.

Everything composite — submission routing, draining, census, stats —
comes from :class:`RingFabric`; this module only contributes the mirror
route map and the lane split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
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
    clockwise.  ``config.lanes`` is split evenly between the directions
    unless ``lanes_per_direction`` is given.
    """

    def __init__(
        self,
        config: RMBConfig,
        lanes_per_direction: Optional[int] = None,
        seed: int = 0,
        check_invariants: bool = True,
        probe_period: Optional[float] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        lanes = lanes_per_direction
        if lanes is None:
            if config.lanes < 2:
                raise ProtocolError(
                    "two-ring RMB needs at least 2 lanes to split"
                )
            lanes = config.lanes // 2
        super().__init__(
            MirrorRouteMap(config.nodes),
            name="two-ring RMB",
            probe_period=probe_period,
        )
        ring_config = config.with_overrides(lanes=lanes)
        self.config = ring_config
        self.nodes = config.nodes
        self.clockwise = self.add_ring(RMBRing(
            ring_config, seed=seed, sim=self.sim, name="cw",
            check_invariants=check_invariants, probe_period=probe_period,
            obs=obs, obs_ring_label="cw" if obs is not None else None,
        ))
        self.counterclockwise = self.add_ring(RMBRing(
            ring_config, seed=seed + 1, sim=self.sim, name="ccw",
            check_invariants=check_invariants, probe_period=probe_period,
            obs=obs, obs_ring_label="ccw" if obs is not None else None,
        ))
        self._wire_obs(obs)
        self._arm_probes()
