"""Work gate: synchronous compaction decides each move once.

``CompactionEngine.global_pass`` takes its candidates from a
start-of-pass snapshot, and each candidate carries its bus and hop.  A
candidate that survives D3 is committed without a second D1 check: no
earlier commit of the pass can change what its D1 test read (DESIGN.md
§9 P6).  The commit still checks Figure 7, once per relative move class
(``status.move_condition``).

This pins both in machine-independent work on a small healthy job (32
nodes, k=4, 0.01 msg/node/tick for 300 ticks, then drained).  The
simulated outcome is the one the re-checking engine produced: 1,952
passes, 2,847 ``_candidate_at`` calls, 1,484 moves, drained at tick
3,904.  That engine re-ran ``move_legal`` on each of the 1,484
candidates it committed and walked the Figure 7 register sequences
(``move_sequences``) once per move, 1,484 times.  The counters below
are wrappers kept in this test.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core import RMBConfig, RMBRing, status
from repro.core.compaction import CompactionEngine
from repro.sim import RandomStream
from repro.traffic import bernoulli_schedule, replay_on_ring


@pytest.fixture(scope="module")
def job() -> SimpleNamespace:
    calls = {"passes": 0, "move_legal_in_pass": 0, "_candidate_at": 0,
             "walks": 0}
    in_pass = [False]
    global_pass = CompactionEngine.global_pass
    move_legal = CompactionEngine.move_legal
    candidate_at = CompactionEngine._candidate_at
    move_sequences = status.move_sequences

    def passing(engine, cycle):
        calls["passes"] += 1
        in_pass[0] = True
        try:
            return global_pass(engine, cycle)
        finally:
            in_pass[0] = False

    def legal(engine, *args, **kwargs):
        calls["move_legal_in_pass"] += in_pass[0]
        return move_legal(engine, *args, **kwargs)

    def candidate(engine, *args):
        calls["_candidate_at"] += 1
        return candidate_at(engine, *args)

    def walk(*args):
        calls["walks"] += 1
        return move_sequences(*args)

    status._relative_move_condition.cache_clear()
    # The ring binds its compaction pass when it is built, so the
    # wrappers go in first.
    with mock.patch.object(CompactionEngine, "global_pass", passing), \
            mock.patch.object(CompactionEngine, "move_legal", legal), \
            mock.patch.object(CompactionEngine, "_candidate_at", candidate), \
            mock.patch.object(status, "move_sequences", walk):
        ring = RMBRing(RMBConfig(nodes=32, lanes=4, cycle_period=2.0),
                       seed=7)
        replay_on_ring(ring, bernoulli_schedule(
            32, 300, 0.01, 8, RandomStream(7, name="perf")))
        ring.run(300)
        ring.drain()
    return SimpleNamespace(ring=ring, calls=calls)


def test_the_simulation_is_unchanged(job):
    compaction = job.ring.compaction
    assert job.calls["passes"] == compaction.stats.cycles_run == 1952
    assert job.calls["_candidate_at"] == 2847
    assert compaction.stats.moves == 1484
    assert compaction.stats.evacuations == 0
    assert job.ring.sim.now == 3904


def test_each_move_is_decided_once(job):
    # Was 1,484: one re-check per committed candidate.
    assert job.calls["move_legal_in_pass"] == 0


def test_figure7_is_walked_once_per_move_class(job):
    # Was 1,484: one walk per move.  The job meets eight of the nine
    # relative classes.
    assert job.calls["walks"] == 8
    assert status._relative_move_condition.cache_info().currsize == 8
