"""E19 — Section 4 future work: RMB fabrics for 2-D grid computers.

The paper closes with "the design of reconfigurable multiple bus systems
for 2- and 3-D grid connected computers" as an open direction.  This
benchmark builds that system — every row and every column of a processor
grid is an RMB ring (a ``(4, 4)`` :class:`~repro.hier.RMBLattice`), with a
store-and-forward turn where the message reaches its destination row —
and races it against (a) one flat RMB ring over all N nodes at
an equal per-link lane budget and (b) the paper's wormhole mesh.

Expected shape: the grid of rings cuts the flat ring's long spans to at
most ``rows/2 + cols/2`` hops and multiplies aggregate lane capacity by
the ring count, so it wins on scattered traffic as N grows; the wormhole
mesh (no circuit setup round-trip, no turn re-injection) stays faster in
raw ticks — the cost argument (constant-length ring wires, trivial
routing) is the RMB side of that trade, as in Section 3.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.hier import RMBLattice
from repro.networks import MeshNetwork
from repro.sim import RandomStream

SIDE = 4          # 4x4 grid = 16 processors
LANES = 2
FLITS = 12


def scattered_pairs(count, rng):
    pairs = []
    nodes = SIDE * SIDE
    for _ in range(count):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        pairs.append((source, destination))
    return pairs


def run_lattice(lattice, pairs):
    for index, (source, destination) in enumerate(pairs):
        lattice.submit(Message(index, source, destination, data_flits=FLITS,
                               created_at=lattice.sim.now))
    makespan = lattice.drain()
    return makespan, lattice.stats().latency.mean


def run_grid(pairs):
    return run_lattice(RMBLattice((SIDE, SIDE), lanes=LANES), pairs)


def run_flat_ring(pairs):
    # One ring over all 16 nodes; double lanes so per-node wire budget is
    # comparable to belonging to two 2-lane rings.
    ring = RMBRing(RMBConfig(nodes=SIDE * SIDE, lanes=2 * LANES,
                             cycle_period=2.0), seed=1)
    for index, (source, destination) in enumerate(pairs):
        ring.submit(Message(index, source, destination, data_flits=FLITS))
    makespan = ring.drain(max_ticks=2_000_000)
    return makespan, ring.stats().latency.mean


def run_mesh(pairs):
    mesh = MeshNetwork(SIDE * SIDE, multiplicity=LANES)
    messages = [Message(index, source, destination, data_flits=FLITS)
                for index, (source, destination) in enumerate(pairs)]
    result = mesh.route_batch(messages, max_ticks=2_000_000)
    return result.makespan, result.mean_latency


def run_lattice_3d(count, rng):
    """The 3-D case: a 4x4x4 lattice under equivalent scattered load."""
    lattice = RMBLattice((4, 4, 4), lanes=LANES)
    nodes = lattice.nodes
    pairs = []
    for _ in range(count):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        pairs.append((source, destination))
    return run_lattice(lattice, pairs)


def run_comparison():
    rng = RandomStream(61)
    rows = []
    for count in (8, 16, 32):
        pairs = scattered_pairs(count, rng)
        grid_makespan, grid_mean = run_grid(pairs)
        ring_makespan, ring_mean = run_flat_ring(pairs)
        mesh_makespan, mesh_mean = run_mesh(pairs)
        rows.append({
            "messages": count,
            "grid-of-rings makespan": grid_makespan,
            "flat ring makespan": ring_makespan,
            "mesh makespan": mesh_makespan,
            "grid mean latency": round(grid_mean, 1),
            "flat ring mean latency": round(ring_mean, 1),
        })
    lattice_makespan, lattice_mean = run_lattice_3d(32, rng.fork("3d"))
    rows.append({
        "messages": "32 (4x4x4 lattice, N=64)",
        "grid-of-rings makespan": lattice_makespan,
        "flat ring makespan": "-",
        "mesh makespan": "-",
        "grid mean latency": round(lattice_mean, 1),
        "flat ring mean latency": "-",
    })
    return rows


def test_e19_grid_of_rings(benchmark):
    rows = benchmark(run_comparison)
    text = render_table(
        rows,
        title=(f"E19  {SIDE}x{SIDE} grid of RMB rings vs one flat ring vs "
               "wormhole mesh (scattered traffic)"),
    )
    report("E19_grid_of_rings", text)
    for row in rows:
        assert row["grid-of-rings makespan"] > 0
    # At the heaviest 2-D load the composed fabric must beat the flat ring.
    heaviest = rows[2]
    assert heaviest["messages"] == 32
    assert heaviest["grid-of-rings makespan"] < \
        heaviest["flat ring makespan"]
    # The 3-D lattice (4x as many processors) absorbs the same message
    # count faster than the 2-D grid did.
    lattice_row = rows[-1]
    assert lattice_row["grid-of-rings makespan"] <= \
        heaviest["grid-of-rings makespan"]
