"""Bisection bandwidth — analytic values plus empirical graph cuts.

Paper Section 3.2: the k-permutation capability metric "is equivalent to
the bisection bandwidth.  The bisection bandwidth of the RMB network is
equal to k · B_c where B_c is the bandwidth of one link."

Analytic values are in link-bandwidth units (B_c = 1).  The empirical
functions count simulator channels crossing a halving cut, used by tests
to confirm the built topologies really have the claimed bisections.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.networks.wormhole import WormholeEngine


def rmb_bisection(nodes: int, k: int) -> float:
    """k: cutting the ring severs two columns, each k one-way segments;
    the paper counts the k lanes of one crossing (traffic is one-way, so
    only one cut column carries any given flow)."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    return float(k)


def hypercube_bisection(nodes: int, k: int) -> float:
    """N/2 dimension-(n-1) links cross the halving cut."""
    return nodes / 2.0


def ehc_bisection(nodes: int, k: int) -> float:
    """N links: the cut across the doubled dimension."""
    return float(nodes)


def fattree_bisection(nodes: int, k: int) -> float:
    """The k-capped fat tree carries min(2**(levels-1), k) at the root."""
    levels = max(1, int(math.log2(nodes)))
    return float(min(1 << (levels - 1), k))


def mesh_bisection(nodes: int, k: int) -> float:
    """sqrt(N) channels cross the cut, each sqrt(k) wires wide."""
    return math.sqrt(nodes) * math.sqrt(k)


ANALYTIC_BISECTION = {
    "rmb": rmb_bisection,
    "hypercube": hypercube_bisection,
    "ehc": ehc_bisection,
    "fattree": fattree_bisection,
    "mesh": mesh_bisection,
}


def empirical_bisection(engine: WormholeEngine,
                        in_half) -> float:
    """One-way wire count from the ``in_half`` node set to its complement.

    Args:
        engine: a built wormhole network.
        in_half: predicate over engine node ids selecting one half.
    """
    crossing = 0
    for channel in engine.channels:
        if in_half(channel.source) and not in_half(channel.sink):
            crossing += channel.multiplicity
    return float(crossing)


def dimension_half(bit: int):
    """Hypercube halving along address bit ``bit``."""

    def predicate(node: int) -> bool:
        return (node >> bit) & 1 == 0

    return predicate
