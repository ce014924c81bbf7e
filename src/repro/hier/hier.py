"""The N-ring hierarchy: local RMB rings bridged by a global ring.

:class:`HierRMB` realises the ROADMAP's "N-ring hierarchical topology
engine" as a :class:`~repro.hier.fabric.RingFabric`: ``m`` local rings of
``n`` nodes each, plus one global ring of ``m`` nodes.  Node 0 of each
local ring is that ring's *bridge*; global-ring node ``L`` is the same
physical station as local ring ``L``'s bridge.  A fabric node address is
``u = L * n + i`` (local ring ``L``, local index ``i``).

Routing is store-and-forward through the bridges (the hierarchical-rings
design of Ausavarungnirun et al., minus deflection — RMB circuits give
us lossless legs):

* same-ring traffic (``L == M``) takes a single local hop and never
  touches the global ring;
* cross-ring traffic chains up to three hops — ``local L: i -> 0``
  (skipped when the source *is* the bridge), ``global: L -> M``, and
  ``local M: 0 -> j`` (skipped when the destination is the bridge) —
  the shortest chain that respects the hierarchy.

Multicast is supported within one local ring (the paper's tap semantics
apply unchanged on the leg); cross-ring multicast is refused.

Wire budget: a flat RMB ring with ``m * n`` nodes and ``k`` lanes costs
``m * n * k`` segments.  The hierarchy spends ``k - 1`` lanes on each
local ring and ``min(n, max(2, k))`` on the global ring, for a total of
``m*n*(k-1) + m*min(n, max(2, k))`` — never more than the flat budget
(the arena's honest-accounting requirement), because the global ring's
``m * min(n, max(2, k))`` segments never exceed the ``m * n`` that the
local rings give up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, List, Optional, Tuple

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.errors import ProtocolError
from repro.hier.fabric import Hop, RingFabric, RouteMap

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.wiring import Observability


def local_ring_name(local: int) -> str:
    """Canonical member-ring name for local ring ``local``."""
    return f"local{local}"


#: Canonical member-ring name for the global ring.
GLOBAL_RING = "global"


@dataclass(frozen=True)
class HierRouteMap(RouteMap):
    """Bridge routing over ``locals`` rings of ``nodes_per_local`` nodes.

    Pure address arithmetic — no state, no randomness — so hop trails
    are a deterministic function of the message (pinned by the
    Hypothesis suite in ``tests/hier/``).
    """

    locals: int
    nodes_per_local: int

    @property
    def nodes(self) -> int:
        """Total addressable fabric nodes."""
        return self.locals * self.nodes_per_local

    def split(self, node: int) -> Tuple[int, int]:
        """``(local ring, local index)`` of fabric address ``node``."""
        if not 0 <= node < self.nodes:
            raise ProtocolError(
                f"fabric address {node} out of range for "
                f"{self.locals}x{self.nodes_per_local} hierarchy "
                f"(0..{self.nodes - 1})"
            )
        return divmod(node, self.nodes_per_local)

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        source_ring, i = self.split(message.source)
        dest_ring, j = self.split(message.destination)
        if source_ring == dest_ring:
            taps = []
            for tap in message.extra_destinations:
                tap_ring, tap_index = self.split(tap)
                if tap_ring != source_ring:
                    raise ProtocolError(
                        f"multicast tap {tap} is on local ring {tap_ring}, "
                        f"but the message travels only on ring "
                        f"{source_ring}; hier multicast must stay within "
                        f"one local ring"
                    )
                taps.append(tap_index)
            return (Hop(
                ring=local_ring_name(source_ring),
                source=i, destination=j,
                extra_destinations=tuple(taps),
            ),)
        if message.extra_destinations:
            raise ProtocolError(
                f"message {message.message_id} multicasts across local "
                f"rings ({source_ring} -> {dest_ring}); hier multicast "
                f"must stay within one local ring"
            )
        hops: List[Hop] = []
        if i != 0:
            hops.append(Hop(
                ring=local_ring_name(source_ring), source=i, destination=0))
        hops.append(Hop(
            ring=GLOBAL_RING, source=source_ring, destination=dest_ring))
        if j != 0:
            hops.append(Hop(
                ring=local_ring_name(dest_ring), source=0, destination=j))
        return tuple(hops)


class HierRMB(RingFabric):
    """A hierarchy of local RMB rings bridged by a global ring.

    Args:
        locals: number of local rings ``m`` (even, at least 4 — the
            global ring is itself an RMB ring and inherits the even-N
            protocol requirement).
        nodes_per_local: nodes ``n`` on each local ring (even, >= 4).
        lanes: the flat-ring lane budget ``k`` the hierarchy must stay
            within: ``k - 1`` lanes per local ring and
            ``min(n, max(2, k))`` on the global ring.
        seed: root seed; member rings derive distinct deterministic
            seeds from it (grid idiom: ``seed*1009 + L`` per local ring,
            ``seed*2003`` for the global ring).
        config: optional :class:`RMBConfig` template supplying every
            non-geometry knob (periods, retry policy, check level, ...);
            nodes and lanes are overridden per member ring.
        probe_period: sampling period for fabric-level *and* per-ring
            utilization / live-bus probes; ``None`` disables both.
        obs: optional observability bundle; member metrics are labelled
            ``ring=localL`` / ``ring=global`` plus ``rmb_ring{ring=...}``
            membership gauges.
        trace_kinds: the kinds every member's trace records; ``None``
            records every kind, and the default records nothing.
    """

    def __init__(
        self,
        locals: int = 4,
        nodes_per_local: int = 8,
        lanes: int = 4,
        seed: int = 0,
        config: Optional[RMBConfig] = None,
        probe_period: Optional[float] = None,
        obs: Optional["Observability"] = None,
        trace_kinds: Optional[AbstractSet[str]] = frozenset(),
    ) -> None:
        if lanes < 2:
            raise ProtocolError(
                "hier RMB needs at least 2 lanes to split between the "
                "local and global tiers"
            )
        template = config if config is not None else RMBConfig(
            nodes=nodes_per_local, lanes=lanes)
        local_config = template.with_overrides(
            nodes=nodes_per_local, lanes=lanes - 1)
        global_config = template.with_overrides(
            nodes=locals, lanes=min(nodes_per_local, max(2, lanes)))
        members = [(local_ring_name(local), local_config, seed * 1009 + local)
                   for local in range(locals)]
        members.append((GLOBAL_RING, global_config, seed * 2003))
        super().__init__(
            HierRouteMap(locals, nodes_per_local), members,
            name=f"hier {locals}x{nodes_per_local}",
            probe_period=probe_period, obs=obs, trace_kinds=trace_kinds,
        )
        self.locals = locals
        self.nodes_per_local = nodes_per_local
        self.nodes = locals * nodes_per_local

    def address(self, local: int, index: int) -> int:
        """Fabric address of local ring ``local``, local index ``index``."""
        if not 0 <= local < self.locals:
            raise ProtocolError(
                f"local ring {local} out of range (0..{self.locals - 1})")
        if not 0 <= index < self.nodes_per_local:
            raise ProtocolError(
                f"local index {index} out of range "
                f"(0..{self.nodes_per_local - 1})")
        return local * self.nodes_per_local + index
