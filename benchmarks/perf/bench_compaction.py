"""Compaction microbenchmarks: the odd/even move engine at N=64, k=4.

Three scenarios bracket the engine's operating envelope:

* ``pack_quiesce`` — a ring loaded with straight buses on high lanes is
  compacted to quiescence (the heavy, move-rich regime);
* ``steady_idle`` — cycles over an already-packed ring (the common case
  in long runs: nothing moved near most INCs, so a cycle should cost
  next to nothing);
* ``light_churn`` — a handful of teardown/re-draw events between bursts
  of cycles (the mixed regime real traffic produces).

Emits ``BENCH_compaction.json``.  Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_compaction.py
"""

from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from perf_common import emit, obs_bundle, scrape, time_scenario  # noqa: E402

from repro.core.compaction import CompactionEngine  # noqa: E402
from repro.core.config import RMBConfig  # noqa: E402
from repro.core.flits import Message, MessageRecord  # noqa: E402
from repro.core.segments import SegmentGrid  # noqa: E402
from repro.core.virtual_bus import BusPhase, VirtualBus  # noqa: E402
from repro.obs import CompactionCollector  # noqa: E402

NODES = 64
LANES = 4
BUSES = 40
SPAN = 6
IDLE_CYCLES = 2_000
CHURN_ROUNDS = 120


def build_loaded_ring() -> tuple[SegmentGrid, dict[int, VirtualBus],
                                 CompactionEngine]:
    """A deterministic N=64, k=4 ring with straight buses on high lanes."""
    config = RMBConfig(nodes=NODES, lanes=LANES)
    grid = SegmentGrid(NODES, LANES)
    buses: dict[int, VirtualBus] = {}
    for bus_id in range(BUSES):
        source = (bus_id * 11) % NODES
        destination = (source + SPAN) % NODES
        lane = None
        for candidate in range(LANES - 1, 0, -1):
            if all(grid.is_free((source + hop) % NODES, candidate)
                   for hop in range(SPAN)):
                lane = candidate
                break
        if lane is None:
            continue
        message = Message(message_id=bus_id, source=source,
                          destination=destination, data_flits=8)
        bus = VirtualBus(bus_id=bus_id, message=message,
                         record=MessageRecord(message=message),
                         ring_size=NODES)
        bus.phase = BusPhase.STREAMING
        for hop in range(SPAN):
            grid.claim((source + hop) % NODES, lane, bus_id)
            bus.hops.append(lane)
        buses[bus_id] = bus
    engine = CompactionEngine(config, grid, buses)
    return grid, buses, engine


_LAST: dict[str, float] = {}


def _attach_obs(engine: CompactionEngine):
    """Register a pull collector so move counts read through the registry."""
    obs = obs_bundle("off")
    obs.registry.register_collector(CompactionCollector(engine, obs.registry))
    return obs


def pack_quiesce() -> int:
    _, _, engine = build_loaded_ring()
    obs = _attach_obs(engine)
    cycles = engine.quiesce()
    value = scrape(obs)
    _LAST["moves"] = value("rmb_compaction_moves")
    _LAST["cycles_run"] = value("rmb_compaction_cycles_run")
    return cycles


def steady_idle() -> int:
    _, _, engine = build_loaded_ring()
    start = engine.quiesce()
    for cycle in range(IDLE_CYCLES):
        engine.global_pass(start + cycle)
    return IDLE_CYCLES


def light_churn() -> int:
    grid, buses, engine = build_loaded_ring()
    cycle = engine.quiesce()
    victims = sorted(buses)[:4]
    for round_index in range(CHURN_ROUNDS):
        # Tear one bus down and redraw it on the top lane, then compact.
        bus_id = victims[round_index % len(victims)]
        bus = buses[bus_id]
        for hop, lane in enumerate(bus.hops):
            grid.release(bus.segment_index(hop), lane, bus_id)
        top = LANES - 1
        if all(grid.is_free(bus.segment_index(hop), top)
               for hop in range(len(bus.hops))):
            for hop in range(len(bus.hops)):
                grid.claim(bus.segment_index(hop), top, bus_id)
                bus.hops[hop] = top
        else:  # pragma: no cover - construction keeps the top lane free
            for hop, lane in enumerate(bus.hops):
                grid.claim(bus.segment_index(hop), lane, bus_id)
        for _ in range(16):
            engine.global_pass(cycle)
            cycle += 1
    return CHURN_ROUNDS * 16


def main() -> None:
    results = {
        "pack_quiesce": time_scenario(pack_quiesce),
        "steady_idle": time_scenario(steady_idle),
        "light_churn": time_scenario(light_churn),
    }
    emit("compaction", results, extra={
        "scenario": {"nodes": NODES, "lanes": LANES, "buses": BUSES,
                     "pack_moves": _LAST.get("moves", 0.0),
                     "pack_cycles": _LAST.get("cycles_run", 0.0)},
    })


if __name__ == "__main__":
    main()
