"""Factory registry for comparison networks.

The race benchmarks request networks by name with a common parameter set;
this module centralises how each architecture is sized "fairly" for a
k-permutation comparison, following Section 3.2's own normalisations:

* ``rmb`` — N nodes, k lanes;
* ``rmb-2ring`` — N nodes, k/2 lanes per direction (equal wire budget,
  so k must be even);
* ``hypercube`` / ``ehc`` — N nodes (power of two);
* ``gfc`` — N processors folded into N/fold super-nodes with fold = min(k, N/4)
  rounded to a power of two (the paper's "scaled GFC");
* ``fattree`` — N processors, channel capacities capped at k (Figure 11);
* ``mesh`` — N nodes, channel multiplicity ceil(sqrt(k)) (the paper widens
  each mesh dimension by sqrt(k) to pass k wires);
* ``multibus`` — k global arbitrated buses;
* ``crossbar`` — contention floor;
* ``hier`` / ``hier:MxN`` — M local RMB rings of N/M nodes bridged by a
  global ring, spending at most the flat ring's ``N * k`` segments
  (``hier`` auto-factors N into the squarest even M x n split; the
  explicit form must satisfy ``M * n == N``).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.config import RMBConfig
from repro.core.network import RMBRing
from repro.errors import ConfigurationError
from repro.hier import HierRMB, TwoRingRMB
from repro.networks.base import ComparisonNetwork
from repro.networks.crossbar import CrossbarNetwork
from repro.networks.ehc import EnhancedHypercubeNetwork
from repro.networks.fattree import FatTreeNetwork
from repro.networks.gfc import GeneralizedFoldingCubeNetwork
from repro.networks.hypercube import HypercubeNetwork
from repro.networks.karyncube import KAryNCubeNetwork
from repro.networks.mesh import MeshNetwork
from repro.networks.multibus import MultiBusNetwork
from repro.networks.rmb_adapter import RMBNetworkAdapter


def hier_shape(name: str, nodes: int) -> tuple[int, int]:
    """The ``(locals, nodes_per_local)`` split a hier spec asks for.

    ``hier`` auto-factors ``nodes`` into the squarest ``m x n`` split
    with both factors even and at least 4 (preferring fewer, larger
    local rings on ties); ``hier:MxN`` is explicit and must multiply
    out to ``nodes``.
    """
    if name == "hier":
        candidates = [
            (m, nodes // m) for m in range(4, nodes // 4 + 1, 2)
            if nodes % m == 0 and (nodes // m) % 2 == 0 and nodes // m >= 4
        ]
        if not candidates:
            raise ConfigurationError(
                f"cannot factor N={nodes} into an even MxN hierarchy "
                "(both factors must be even and >= 4); "
                "use hier:MxN to choose the split explicitly"
            )
        side = math.sqrt(nodes)
        return min(candidates, key=lambda mn: (abs(mn[0] - side), mn[0]))
    spec = name.removeprefix("hier:")
    parts = spec.split("x")
    try:
        m, n = (int(part) for part in parts)
    except ValueError:
        m, n = 0, 0
    if len(parts) != 2 or m <= 0 or n <= 0:
        raise ConfigurationError(
            f"bad hier spec {name!r}; expected hier or hier:MxN "
            "(e.g. hier:4x8)"
        )
    if m * n != nodes:
        raise ConfigurationError(
            f"hier spec {name!r} covers {m * n} nodes but the comparison "
            f"is sized for N={nodes}"
        )
    if m % 2 or n % 2 or m < 4 or n < 4:
        raise ConfigurationError(
            f"hier spec {name!r} needs both factors even and >= 4 "
            "(each tier is itself an RMB ring)"
        )
    return m, n


def is_known_network(name: str) -> bool:
    """Whether :func:`build_network` can resolve ``name``.

    Covers the fixed registry names plus the parametrised ``hier:MxN``
    family (shape validation happens at build time, when N is known).
    """
    if name in PAPER_NETWORKS or name in EXTRA_NETWORKS:
        return True
    return name.startswith("hier:")


def _power_of_two_at_most(value: int) -> int:
    if value < 1:
        return 1
    return 1 << (value.bit_length() - 1)


def _square_torus(nodes: int) -> KAryNCubeNetwork:
    """An r x r torus with r = sqrt(nodes); square sizes only."""
    side = math.isqrt(nodes)
    if side * side != nodes:
        raise ConfigurationError(
            f"karyncube comparison sizes N as a square torus; {nodes} is "
            "not a perfect square"
        )
    return KAryNCubeNetwork(radix=side, dimensions=2)


def build_network(name: str, nodes: int, k: int,
                  seed: int = 0) -> ComparisonNetwork:
    """Build a named network sized for N nodes and k-permutation support.

    The two RMB fabrics split their k lanes between two rings or tiers,
    so they refuse k < 2 rather than race on a wider wire budget than
    the flat ring's; ``rmb-2ring`` also refuses an odd k rather than
    race on a narrower one.
    """
    hier = name == "hier" or name.startswith("hier:")
    if (hier or name == "rmb-2ring") and k < 2:
        raise ConfigurationError(
            f"network {name!r} needs at least 2 lanes to split between "
            f"its rings, got k={k}"
        )
    if name == "rmb-2ring" and k % 2:
        raise ConfigurationError(
            f"network {name!r} splits its lanes evenly between its two "
            f"rings; k={k} is odd"
        )
    if hier:
        locals_count, nodes_per_local = hier_shape(name, nodes)
        return RMBNetworkAdapter(name, nodes, lambda: HierRMB(
            locals=locals_count, nodes_per_local=nodes_per_local, lanes=k,
            seed=seed))
    builders: dict[str, Callable[[], ComparisonNetwork]] = {
        "rmb": lambda: RMBNetworkAdapter("rmb", nodes, lambda: RMBRing(
            RMBConfig(nodes=nodes, lanes=k), seed=seed)),
        "rmb-2ring": lambda: RMBNetworkAdapter(
            "rmb-2ring", nodes,
            lambda: TwoRingRMB(RMBConfig(nodes=nodes, lanes=k), seed=seed)),
        "hypercube": lambda: HypercubeNetwork(nodes),
        "ehc": lambda: EnhancedHypercubeNetwork(nodes),
        "gfc": lambda: GeneralizedFoldingCubeNetwork(
            max(2, nodes // max(1, _power_of_two_at_most(min(k, nodes // 4)))),
            fold=max(1, _power_of_two_at_most(min(k, nodes // 4))),
        ),
        "fattree": lambda: FatTreeNetwork(nodes, k=k),
        "mesh": lambda: MeshNetwork(nodes,
                                    multiplicity=max(1, math.isqrt(k))),
        "multibus": lambda: MultiBusNetwork(nodes, buses=k),
        "crossbar": lambda: CrossbarNetwork(nodes),
        "karyncube": lambda: _square_torus(nodes),
    }
    if name not in builders:
        raise ConfigurationError(
            f"unknown network {name!r}; choose from {sorted(builders)}"
        )
    return builders[name]()


#: Networks the paper's Section 3 comparison covers, in its order.
PAPER_NETWORKS = ("rmb", "hypercube", "ehc", "gfc", "fattree", "mesh")

#: Extra reference rows this reproduction adds (k-ary n-cube is the
#: paper's own named future-work comparator, realised as a square torus;
#: ``hier`` is the N-ring hierarchical fabric, also reachable with an
#: explicit split as ``hier:MxN``).
EXTRA_NETWORKS = ("rmb-2ring", "multibus", "crossbar", "karyncube", "hier")
