"""k-permutations — the paper's capability metric, made executable.

"An RMB with h buses can support any h-permutation where a h-permutation
allows any arbitrary k messages to pass through the RMB concurrently."
A k-permutation here is a set of at most ``k`` simultaneous messages with
distinct sources and distinct destinations.

For a *ring*, the binding constraint is per-segment load: a set of
clockwise arcs can be carried simultaneously iff no segment is crossed by
more than ``k`` arcs.  :func:`ring_load` computes that load profile and is
the ground truth for experiment E13 (the RMB carries any message set of
ring load <= k concurrently) and for the offline-optimal scheduler.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream


def validate_kpermutation(pairs: Sequence[tuple[int, int]], nodes: int) -> None:
    """Raise unless sources are distinct, destinations are distinct, and
    every endpoint is a valid node."""
    sources = [source for source, _ in pairs]
    destinations = [destination for _, destination in pairs]
    if len(set(sources)) != len(sources):
        raise WorkloadError("k-permutation sources must be distinct")
    if len(set(destinations)) != len(destinations):
        raise WorkloadError("k-permutation destinations must be distinct")
    for source, destination in pairs:
        if not (0 <= source < nodes and 0 <= destination < nodes):
            raise WorkloadError(
                f"pair ({source}, {destination}) outside 0..{nodes - 1}"
            )
        if source == destination:
            raise WorkloadError(f"pair ({source}, {destination}) is a no-op")


def random_kpermutation(nodes: int, k: int,
                        rng: RandomStream) -> list[tuple[int, int]]:
    """``k`` random messages with distinct sources and destinations."""
    if not 1 <= k <= nodes:
        raise WorkloadError(f"k must be in 1..{nodes}, got {k}")
    sources = rng.sample(range(nodes), k)
    while True:
        destinations = rng.sample(range(nodes), k)
        if all(s != d for s, d in zip(sources, destinations)):
            return list(zip(sources, destinations))


def ring_load(pairs: Sequence[tuple[int, int]], nodes: int) -> list[int]:
    """Clockwise arc load per ring segment.

    ``load[i]`` counts the messages whose clockwise path crosses segment
    ``i`` (the wire bundle from node ``i`` to ``i + 1``).  Computed with a
    circular prefix sum, O(N + M).
    """
    delta = [0] * nodes
    wraps = 0
    for source, destination in pairs:
        if source == destination:
            continue
        delta[source] += 1
        delta[destination] -= 1
        if destination < source:
            wraps += 1
    load = []
    running = wraps
    for segment in range(nodes):
        running += delta[segment]
        load.append(running)
    return load


def max_ring_load(pairs: Sequence[tuple[int, int]], nodes: int) -> int:
    """The peak segment load — the minimum lane count that could ever
    carry all of ``pairs`` concurrently on a clockwise ring."""
    if not pairs:
        return 0
    return max(ring_load(pairs, nodes))


def bounded_load_pairs(nodes: int, k: int, rng: RandomStream,
                       attempts: int = 10_000) -> list[tuple[int, int]]:
    """A random k-permutation whose ring load is exactly <= k.

    Used by E13: such a set must be carried fully concurrently by an RMB
    with ``k`` lanes.  Sampling simply rejects overloaded draws; for
    ``k <= nodes / 4`` acceptance is high because expected load is ``k/2``.
    """
    for _ in range(attempts):
        pairs = random_kpermutation(nodes, k, rng)
        if max_ring_load(pairs, nodes) <= k:
            return pairs
    raise WorkloadError(
        f"could not sample a load-bounded {k}-permutation on {nodes} nodes"
    )  # pragma: no cover - acceptance is high for the sizes we use


def worst_case_virtual_buses(nodes: int, k: int) -> list[tuple[int, int]]:
    """The concluding-remark scenario (E15 upper end): ``k`` full-length
    virtual buses — each spans ``N - 1`` segments.

    Returns ``k`` pairs ``(i, i - 1 mod N)``; their ring load is exactly
    ``k`` on every segment except the ``k`` gaps.
    """
    if not 1 <= k <= nodes:
        raise WorkloadError(f"k must be in 1..{nodes}, got {k}")
    return [(i, (i - 1) % nodes) for i in range(k)]
