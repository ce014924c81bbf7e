"""Feature gates: configurations outside the batch subset refuse early.

The batch backend models synchronous rings with static faults; anything
else must raise :class:`BatchUnsupported` at construction/load time
(never silently diverge), and the CLI must name the offending flag.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import BatchRing, replay_on_batch
from repro.batch.engine import BatchUnsupported
from repro.cli import main
from repro.core import Message, RMBConfig
from repro.core.status import PortHealth
from repro.sim import RandomStream
from repro.traffic import ArrivalSchedule, bernoulli_schedule


def test_rejects_asynchronous_rings():
    config = RMBConfig(nodes=8, lanes=2, synchronous=False)
    with pytest.raises(BatchUnsupported, match="synchronous"):
        BatchRing(config)


def test_rejects_fractional_cycle_period():
    config = RMBConfig(nodes=8, lanes=2, cycle_period=1.5)
    with pytest.raises(BatchUnsupported, match="cycle_period"):
        BatchRing(config)


def test_rejects_admission_control():
    config = RMBConfig(nodes=8, lanes=2, admission_limit=4)
    with pytest.raises(BatchUnsupported, match="admission"):
        BatchRing(config)


def test_rejects_compacting_a_travelling_header():
    # With D9 waived the batch engine drifted from the event ring even
    # without faults (N=10, k=3, rate 0.05: 2 of seeds 0-3 differed).
    config = RMBConfig(nodes=8, lanes=2, compact_head_while_extending=True)
    with pytest.raises(BatchUnsupported,
                       match="compact_head_while_extending"):
        BatchRing(config)


def test_rejects_fractional_probe_period():
    config = RMBConfig(nodes=8, lanes=2, cycle_period=2.0)
    with pytest.raises(BatchUnsupported, match="probe_period"):
        BatchRing(config, probe_period=2.5)


def test_rejects_multicast_messages():
    config = RMBConfig(nodes=8, lanes=2, cycle_period=2.0)
    ring = BatchRing(config)
    tap = Message(message_id=1, source=0, destination=3, data_flits=2,
                  extra_destinations=(5,))
    with pytest.raises(BatchUnsupported, match="multicast"):
        ring.load(ArrivalSchedule([(1.0, tap)]))


def test_rejects_dynamic_faults():
    config = RMBConfig(nodes=8, lanes=2, cycle_period=2.0)
    ring = BatchRing(config)
    rng = RandomStream(3, name="gates")
    replay_on_batch(ring, bernoulli_schedule(8, 40, 0.05, 2, rng))
    ring.run(10)
    with pytest.raises(BatchUnsupported, match="static"):
        ring.set_health(2, 1, PortHealth.DEAD)


def test_cli_names_the_unsupported_flags(capsys):
    code = main(["run", "--backend", "batch", "--watchdog", "--recovery"])
    assert code == 1
    out = capsys.readouterr().out
    assert "--watchdog" in out and "--recovery" in out


def test_cli_rejects_fault_plans(capsys):
    code = main(["run", "--backend", "batch", "--fault-plan", "lane:1@10"])
    assert code == 1
    assert "--fault-plan" in capsys.readouterr().out


def test_cli_batch_run_matches_event_run(tmp_path, capsys):
    """The CI smoke in miniature: one tiny workload, both backends,
    identical stats JSON."""
    args = ["run", "-n", "8", "-k", "2", "-m", "8", "--rate", "0.05",
            "--seed", "11"]
    event_json = tmp_path / "event.json"
    batch_json = tmp_path / "batch.json"
    assert main(args + ["--stats-json", str(event_json)]) == 0
    assert main(args + ["--backend", "batch",
                        "--stats-json", str(batch_json)]) == 0
    capsys.readouterr()
    event_stats = json.loads(event_json.read_text())
    batch_stats = json.loads(batch_json.read_text())
    assert event_stats == batch_stats
    assert event_stats["completed"] > 0
