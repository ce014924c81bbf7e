"""Byte-for-byte pin of the CLI's fixed-seed outputs and flag surface.

Reruns every command line of ``tests/fixtures/regen_cli_golden.py`` and
compares its stdout and written files with ``tests/fixtures/cli_golden/``,
then checks four cross-case properties the goldens imply: a run resumed
from its first checkpoint reproduces the full run, an observed fabric
run reports the unobserved run's stats, and the batch backend
reproduces the event backend's run stats and saturation curve on the
shared workloads.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures.regen_cli_golden import (
    CASES,
    GOLDEN,
    build_outputs,
    flags_json,
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, dict[str, bytes]]:
    return build_outputs(tmp_path_factory.mktemp("cli"))


def _golden(case: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted((GOLDEN / case).iterdir())}


@pytest.mark.parametrize("case", [*CASES, "resume"])
def test_outputs_are_bit_identical(outputs, case):
    expected = _golden(case)
    actual = outputs[case]
    assert sorted(actual) == sorted(expected), f"{case}: file set drifted"
    for filename, data in expected.items():
        assert actual[filename] == data, f"{case}/{filename} drifted"


def test_flag_surface_is_unchanged():
    expected = (GOLDEN / "flags.json").read_text(encoding="utf-8")
    assert flags_json() == expected


def test_resumed_run_reproduces_the_full_run(outputs):
    full, resumed = outputs["checkpoint"], outputs["resume"]
    assert resumed["stdout.txt"] == full["stdout.txt"]
    assert resumed["resumed.json"] == full["full.json"]


def test_observed_fabric_stats_equal_unobserved(outputs):
    assert outputs["run_hier_obs"]["stats.json"] == \
        outputs["run_hier"]["stats.json"]


def test_batch_stats_equal_event_stats(outputs):
    assert outputs["run_batch"]["stats.json"] == \
        outputs["run_sync"]["stats.json"]


def test_batch_saturation_curve_equals_event(outputs):
    event, batch = outputs["saturate_event"], outputs["saturate_batch"]
    event_curve = json.loads(event["curve.json"])
    batch_curve = json.loads(batch["curve.json"])
    assert (event_curve.pop("backend"), batch_curve.pop("backend")) == \
        ("event", "batch")
    assert batch_curve == event_curve
    assert batch["stdout.txt"].replace(b"backend=batch", b"backend=event") \
        == event["stdout.txt"]
