"""Regenerate the lattice differential golden files.

Three fixed-seed :class:`RMBLattice` scenarios — shapes ``(4, 6)``,
``(4, 4, 4)`` and ``(6, 4, 4)``, two lanes, seeded scattered traffic in
three submission waves — whose outputs are committed byte-for-byte under
``tests/fixtures/lattice_golden/`` (one ``<shape>.txt`` per scenario):

* every journey: id, source and destination node, completion time, and
  for each leg the ring it ran on, its ring-local endpoints, creation and
  completion times, retries and nacks;
* every member ring's compaction move count;
* every drain's makespan.

Wave one is submitted at t=0 and partly run; wave two joins it mid-flight
and the lattice drains; wave three is submitted after an idle ``run()``
and drained again.  Every drain starts on a 32-tick boundary, the only
case in which a drain to ``now + 32*k`` and a drain to absolute 32-tick
chunk boundaries stop at the same time.  Ring-local leg ids are not
pinned: nothing observable depends on how legs are numbered.

``tests/hier/test_lattice_differential.py`` rebuilds the identical runs
and byte-compares.  These files were generated *before* the lattice was
rebuilt on :class:`~repro.hier.fabric.RingFabric`, by this script's
predecessor on the hand-rolled lattice class; regenerating them is only
legitimate for an intentional behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_lattice_golden.py
"""

from __future__ import annotations

import pathlib

from repro.core.flits import Message
from repro.hier import RMBLattice
from repro.sim import RandomStream

HERE = pathlib.Path(__file__).resolve().parent

SHAPES = ((4, 6), (4, 4, 4), (6, 4, 4))
LANES = 2
SEED = 11
#: Messages per wave, as a fraction of the lattice's node count.
WAVE_FRACTION = 0.5


def shape_label(shape) -> str:
    return "x".join(str(size) for size in shape)


def _wave(rng: RandomStream, nodes: int, first_id: int) -> list[tuple]:
    """``(message_id, source, destination, data_flits)`` scattered pairs."""
    wave = []
    for offset in range(int(nodes * WAVE_FRACTION)):
        source = rng.randint(0, nodes - 1)
        destination = (source + rng.randint(1, nodes - 1)) % nodes
        wave.append((first_id + offset, source, destination,
                     rng.randint(0, 8)))
    return wave


def _submit(lattice: RMBLattice, wave) -> None:
    now = lattice.sim.now
    for message_id, source, destination, flits in wave:
        lattice.submit(Message(message_id, source, destination,
                               data_flits=flits, created_at=now))


def _journey_lines(lattice: RMBLattice) -> list[str]:
    lines = []
    for message_id in sorted(lattice.journeys):
        journey = lattice.journeys[message_id]
        lines.append(
            f"journey {message_id} "
            f"{journey.message.source}->{journey.message.destination} "
            f"completed={journey.completed_at}")
        for hop in journey.trail:
            leg = hop.record
            lines.append(
                f"  leg {hop.ring} "
                f"{leg.message.source}->{leg.message.destination} "
                f"created={leg.message.created_at} "
                f"completed={leg.completed_at} "
                f"retries={leg.retries} nacks={leg.nacks}")
    return lines


def build_output(shape) -> str:
    lattice = RMBLattice(shape, lanes=LANES, seed=SEED)
    rng = RandomStream(SEED).fork(shape_label(shape))
    nodes = lattice.nodes
    waves = [_wave(rng, nodes, index * nodes) for index in range(3)]
    drains = []
    _submit(lattice, waves[0])
    lattice.run(64)
    _submit(lattice, waves[1])
    drains.append(f"drain 1 makespan={lattice.drain()} now={lattice.sim.now}")
    lattice.run(32)
    _submit(lattice, waves[2])
    drains.append(f"drain 2 makespan={lattice.drain()} now={lattice.sim.now}")
    lines = [f"lattice {shape_label(shape)} lanes={LANES} seed={SEED}"]
    lines.extend(drains)
    lines.extend(
        f"ring {ring.name} moves={ring.compaction.stats.moves}"
        for ring in lattice.rings.values())
    lines.extend(_journey_lines(lattice))
    return "\n".join(lines) + "\n"


def build_outputs() -> dict[str, str]:
    return {f"{shape_label(shape)}.txt": build_output(shape)
            for shape in SHAPES}


def main() -> None:
    target = HERE / "lattice_golden"
    target.mkdir(exist_ok=True)
    for filename, text in build_outputs().items():
        (target / filename).write_text(text, encoding="utf-8")
        print(f"wrote {target / filename}")


if __name__ == "__main__":
    main()
