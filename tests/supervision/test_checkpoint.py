"""Checkpoint/restore unit tests: format, fidelity, and the periodic writer."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.core.config import RetryPolicy
from repro.errors import SnapshotError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.supervision import (
    SNAPSHOT_VERSION,
    PeriodicCheckpointer,
    describe_snapshot,
    load_snapshot,
    load_snapshot_bytes,
    resume_run,
    save_snapshot,
    save_snapshot_bytes,
)


def msg(mid, src, dst, flits=4):
    return Message(message_id=mid, source=src, destination=dst,
                   data_flits=flits)


def build_ring(seed=3, fault=False) -> RMBRing:
    """A small loaded ring that records every trace kind, so a restore
    is checked against a non-empty trace."""
    plan = None
    if fault:
        plan = FaultPlan(events=[
            FaultEvent(time=18.0, kind=FaultKind.SEGMENT, action="fail",
                       segment=2, lane=1, grace=4.0),
            FaultEvent(time=48.0, kind=FaultKind.SEGMENT, action="repair",
                       segment=2, lane=1),
        ])
    config = RMBConfig(nodes=8, lanes=3, retry=RetryPolicy(
        jitter=0.25, max_retries=8 if fault else None))
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan,
                   watchdog=True, trace_kinds=None)
    ring.submit_all(msg(i, i % 8, (i + 3) % 8) for i in range(12))
    return ring


class TestFormat:
    def test_manifest_line_is_readable_without_unpickling(self, tmp_path):
        ring = build_ring()
        ring.run(10)
        path = str(tmp_path / "snap.rmbsnap")
        save_snapshot(path, ring, meta={"run_until": 60.0})
        manifest = describe_snapshot(path)
        assert manifest["format"] == "rmb-snapshot"
        assert manifest["version"] == SNAPSHOT_VERSION
        assert manifest["sim_time"] == 10.0
        assert manifest["meta"]["run_until"] == 60.0

    def test_rejects_non_snapshot_bytes(self):
        with pytest.raises(SnapshotError):
            load_snapshot_bytes(b"definitely not a snapshot\njunk")

    def test_rejects_wrong_version(self):
        header = json.dumps({"format": "rmb-snapshot", "version": 999})
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot_bytes(header.encode() + b"\npayload")

    def test_rejects_corrupt_payload(self):
        ring = build_ring()
        data = save_snapshot_bytes(ring)
        truncated = data[: len(data) // 2]
        with pytest.raises(SnapshotError, match="corrupt"):
            load_snapshot_bytes(truncated)

    def test_rejects_non_json_meta(self):
        ring = build_ring()
        with pytest.raises(SnapshotError, match="JSON"):
            save_snapshot_bytes(ring, meta={"bad": object()})

    def test_missing_file_surfaces_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "absent.rmbsnap"))


class TestFidelity:
    def test_restore_preserves_full_observable_state(self):
        ring = build_ring(fault=True)
        ring.run(30)
        restored, manifest = load_snapshot_bytes(save_snapshot_bytes(ring))
        assert manifest["sim_time"] == ring.sim.now
        assert restored.sim.now == ring.sim.now
        assert restored.grid.state_signature() == ring.grid.state_signature()
        assert restored.seeds.stream("retry").getstate() == \
            ring.seeds.stream("retry").getstate()
        assert restored.sim.pending_events == ring.sim.pending_events
        assert set(restored.buses) == set(ring.buses)
        assert ring.trace.entries
        assert restored.trace.entries == ring.trace.entries
        assert restored.stats().summary() == ring.stats().summary()

    def test_restored_run_matches_uninterrupted_run(self):
        reference = build_ring(fault=True)
        reference.sim.run(until=60.0)
        reference.drain()

        interrupted = build_ring(fault=True)
        interrupted.run(25)
        restored, _ = load_snapshot_bytes(save_snapshot_bytes(interrupted))
        restored.sim.run(until=60.0)
        restored.drain()

        assert restored.sim.now == reference.sim.now
        assert restored.stats().summary() == reference.stats().summary()
        assert reference.trace.entries
        assert restored.trace.entries == reference.trace.entries
        assert restored.grid.state_signature() == \
            reference.grid.state_signature()

    def test_snapshot_bytes_do_not_depend_on_reading_the_trace(self):
        # A trace keeps pending rows as columns until it is read; the
        # snapshot builds them, so the bytes are the same either way.
        read, unread = build_ring(fault=True), build_ring(fault=True)
        for ring in (read, unread):
            ring.run(30)
        assert read.trace.of_kind("inject")
        assert save_snapshot_bytes(read) == save_snapshot_bytes(unread)
        for ring in (read, unread):
            ring.run(60)
        assert len(read.trace.render()) > 0
        assert save_snapshot_bytes(read) == save_snapshot_bytes(unread)

    def test_restored_ring_accepts_new_traffic(self):
        ring = build_ring()
        ring.run(20)
        restored, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
        record = restored.submit(msg(99, 0, 5))
        restored.drain()
        assert record.finished


class TestPeriodicCheckpointer:
    def test_writes_on_schedule_with_tick_placeholder(self, tmp_path):
        ring = build_ring()
        template = str(tmp_path / "snap-{tick}.rmbsnap")
        checkpointer = PeriodicCheckpointer(ring, 20.0, template,
                                            meta={"run_until": 70.0})
        ring.sim.run(until=70.0)
        names = [os.path.basename(p) for p in checkpointer.written]
        assert names == ["snap-20.rmbsnap", "snap-40.rmbsnap",
                         "snap-60.rmbsnap"]
        assert all(os.path.exists(p) for p in checkpointer.written)

    def test_snapshot_contains_the_next_checkpoint_event(self, tmp_path):
        # reschedule-first: a restored run keeps checkpointing.
        ring = build_ring()
        template = str(tmp_path / "snap-{tick}.rmbsnap")
        PeriodicCheckpointer(ring, 20.0, template)
        ring.sim.run(until=25.0)
        restored, _ = load_snapshot(str(tmp_path / "snap-20.rmbsnap"))
        restored.sim.run(until=45.0)
        assert os.path.exists(str(tmp_path / "snap-40.rmbsnap"))

    def test_stop_halts_snapshots(self, tmp_path):
        ring = build_ring()
        template = str(tmp_path / "snap-{tick}.rmbsnap")
        checkpointer = PeriodicCheckpointer(ring, 20.0, template)
        ring.sim.run(until=25.0)
        checkpointer.stop()
        ring.sim.run(until=90.0)
        assert len(checkpointer.written) == 1

    def test_resume_run_reaches_the_recorded_horizon(self, tmp_path):
        reference = build_ring(fault=True)
        reference.sim.run(until=60.0)
        reference.drain()

        ring = build_ring(fault=True)
        template = str(tmp_path / "snap-{tick}.rmbsnap")
        PeriodicCheckpointer(ring, 25.0, template,
                             meta={"run_until": 60.0})
        ring.sim.run(until=60.0)
        resumed, manifest = resume_run(str(tmp_path / "snap-25.rmbsnap"))
        assert manifest["meta"]["run_until"] == 60.0
        assert resumed.sim.now == reference.sim.now
        assert resumed.stats().summary() == reference.stats().summary()
        assert reference.trace.entries
        assert resumed.trace.entries == reference.trace.entries
