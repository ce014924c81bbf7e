"""Deterministic checkpoint/restore of a complete RMB run.

A snapshot captures the *entire* live object graph of a ring — simulator
clock and event queue, RNG stream states, segment grid (health and
epochs included), live virtual buses, compaction and cycle-handshake
state, the fault manager's armed schedule, admission and watchdog state,
traces and statistics — in **one** pickle, so every shared reference is
preserved exactly once and restored to the same shape.  A resumed run is
bit-exact with the uninterrupted one: same event order, same RNG draws,
same final statistics (property-tested in
``tests/supervision/test_checkpoint_roundtrip.py``).

This works because PR 2 removed every closure from the run's object
graph (bound methods and :func:`functools.partial` pickle; closures do
not) and made the kernel's event-sequence counter plain state.

File format: one JSON manifest line (format tag, :data:`SNAPSHOT_VERSION`,
sim time, caller metadata, and — for ring fabrics — the member ring
names under ``rings``) followed by the raw pickle payload.  The manifest
can be read without unpickling via :func:`describe_snapshot`.

.. warning::
   Snapshots are pickles: restoring one executes arbitrary code embedded
   in the file.  Only load snapshots you produced yourself.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SnapshotError
from repro.sim.kernel import Periodic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.network import RMBRing

#: Bump on any change that makes old snapshots unreadable.  Version 2:
#: every pickled ``RMBConfig`` carries its ``retry`` policy.  Version 3:
#: every grid carries its column epochs and every routing engine its
#: extending and parked headers.  Version 4: every routing engine
#: carries its signalling and streaming buses, its ready nodes, its
#: header-pass count, and each parked header's settled and due passes.
#: Version 5: every invariant monitor's monotonicity tracker keeps one
#: list of held-hop lanes per bus id, and the monitor no longer carries
#: ``check_ports``.
SNAPSHOT_VERSION = 5

_FORMAT = "rmb-snapshot"


def save_snapshot_bytes(ring: "RMBRing",
                        meta: Optional[dict[str, Any]] = None) -> bytes:
    """Serialise ``ring`` (manifest line + pickle payload).

    Args:
        ring: the run to capture.
        meta: JSON-safe caller metadata stored in the manifest (the CLI
            records the run's absolute horizon here as ``run_until``).

    Raises:
        SnapshotError: when some object in the run graph cannot be
            pickled (a closure crept back in) or ``meta`` is not JSON.
    """
    manifest = {
        "format": _FORMAT,
        "version": SNAPSHOT_VERSION,
        "sim_time": ring.sim.now,
        "meta": dict(meta) if meta else {},
    }
    # Ring fabrics (TwoRingRMB, HierRMB, RMBLattice) are snapshotted as
    # one graph; listing the member rings lets describe_snapshot() tell a
    # fabric snapshot from a flat-ring one without unpickling.
    members = getattr(ring, "rings", None)
    if isinstance(members, dict) and members:
        manifest["rings"] = list(members)
    try:
        header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot meta is not JSON-safe: {exc}") from exc
    try:
        payload = pickle.dumps(ring, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"run state is not serialisable: {exc}"
        ) from exc
    return header + b"\n" + payload


def load_snapshot_bytes(data: bytes) -> tuple["RMBRing", dict[str, Any]]:
    """Inverse of :func:`save_snapshot_bytes`: ``(ring, manifest)``."""
    manifest = _parse_manifest(data)
    payload = data[data.index(b"\n") + 1:]
    try:
        ring = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"snapshot payload is corrupt: {exc}") from exc
    return ring, manifest


def save_snapshot(path: str, ring: "RMBRing",
                  meta: Optional[dict[str, Any]] = None) -> None:
    """Write a snapshot file atomically (temp file + rename)."""
    data = save_snapshot_bytes(ring, meta)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
    os.replace(tmp_path, path)


def load_snapshot(path: str) -> tuple["RMBRing", dict[str, Any]]:
    """Read a snapshot file; returns ``(ring, manifest)``."""
    with open(path, "rb") as handle:
        return load_snapshot_bytes(handle.read())


def describe_snapshot(path: str) -> dict[str, Any]:
    """Read only the manifest line of a snapshot (no unpickling)."""
    with open(path, "rb") as handle:
        first = handle.readline()
    return _parse_manifest(first)


def _parse_manifest(data: bytes) -> dict[str, Any]:
    newline = data.find(b"\n")
    header = data if newline < 0 else data[:newline]
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotError(
            f"not a snapshot file (bad manifest line): {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise SnapshotError("not a snapshot file (missing format tag)")
    version = manifest.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return manifest


def resume_run(path: str, drain: bool = True,
               max_ticks: float = 1_000_000.0) -> tuple["RMBRing", dict[str, Any]]:
    """Load a snapshot and run the ring to its recorded horizon.

    When the manifest's meta carries ``run_until`` (the CLI always
    records it), the restored simulator runs to that *absolute* time —
    exactly where the uninterrupted run would have stopped — and then
    drains outstanding traffic.  Returns ``(ring, manifest)`` so the
    caller can read stats or keep driving the ring.
    """
    ring, manifest = load_snapshot(path)
    run_until = manifest.get("meta", {}).get("run_until")
    if run_until is not None and float(run_until) > ring.sim.now:
        ring.sim.run(until=float(run_until))
    if drain:
        ring.drain(max_ticks=max_ticks)
    return ring, manifest


class PeriodicCheckpointer:
    """Write a snapshot of ``ring`` every ``period`` ticks while it runs.

    The checkpointer is itself part of the captured graph (its pending
    probe sits in the kernel's event queue), so a restored run keeps
    checkpointing on schedule.  It uses ``reschedule_first`` so the next
    occurrence is already queued inside each snapshot — without that, a
    resumed run would never checkpoint again.

    Args:
        ring: the run to capture.
        period: ticks between snapshots.
        path_template: output path; a ``{tick}`` placeholder is replaced
            with the integer snapshot time (no placeholder = one file,
            overwritten in place).
        meta: extra manifest metadata merged into every snapshot.
    """

    def __init__(
        self,
        ring: "RMBRing",
        period: float,
        path_template: str,
        meta: Optional[dict[str, Any]] = None,
        label: str = "checkpoint",
    ) -> None:
        self._ring = ring
        self._path_template = path_template
        self._meta = dict(meta) if meta else {}
        self.written: list[str] = []
        self._periodic = Periodic(
            ring.sim, period, self._fire,
            label=label, reschedule_first=True,
        )

    def _fire(self) -> None:
        tick = self._ring.sim.now
        path = self._path_template.format(tick=int(tick))
        save_snapshot(path, self._ring,
                      meta={**self._meta, "checkpoint_time": tick})
        self.written.append(path)

    def stop(self) -> None:
        """Stop taking snapshots (already-written files are kept)."""
        self._periodic.stop()
