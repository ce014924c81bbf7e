"""The experiment registry: one record per reproduced paper artefact.

DESIGN.md §5 defines the experiment index; this module is its
machine-readable twin, used by tests to guarantee that every registered
experiment has a live benchmark module and by the ``experiment_index``
example to print reproduction status.  Keeping the registry in code means
the docs cannot silently drift from what actually runs.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproduced table/figure/claim.

    Attributes:
        experiment_id: E-number from DESIGN.md §5.
        title: short human name.
        paper_artefact: the paper table/figure/claim being reproduced.
        bench_module: file name under ``benchmarks/``.
        kind: ``exact`` (formula/structural identity), ``behavioural``
            (property demonstrated on the simulator), or ``new`` (analysis
            the paper proposed or omitted, carried out here).
    """

    experiment_id: str
    title: str
    paper_artefact: str
    bench_module: str
    kind: str

    def result_file(self) -> str:
        """Stem of the archived output under ``benchmarks/results/``."""
        return self.experiment_id.replace("-", "_")


_RAW = [
    ("E1", "status-code census", "Table 1 / Figure 6",
     "bench_status_codes.py", "behavioural"),
    ("E2", "top-lane entry and packing", "Figures 2/3",
     "bench_compaction_packing.py", "behavioural"),
    ("E3", "make-before-break", "Figure 4",
     "bench_make_before_break.py", "behavioural"),
    ("E4", "two-cycle lane drop", "Figure 5",
     "bench_two_cycle_move.py", "exact"),
    ("E5", "four move conditions", "Figure 7",
     "bench_move_conditions.py", "behavioural"),
    ("E6", "odd/even handshake FSM", "Figures 9/10, Table 2",
     "bench_cycle_fsm.py", "behavioural"),
    ("E7", "cycle-skew bound", "Lemma 1",
     "bench_lemma1_skew.py", "behavioural"),
    ("E8", "full utilisation", "Theorem 1",
     "bench_theorem1_utilization.py", "behavioural"),
    ("E9-E12", "hardware cost table", "Section 3.2 formulas",
     "bench_cost_table.py", "exact"),
    ("E13", "k-permutation capability", "Section 3.2 metric",
     "bench_kpermutation.py", "behavioural"),
    ("E14", "permutation race", "Section 3 comparison",
     "bench_permutation_race.py", "behavioural"),
    ("E15", "virtual-bus count", "Section 4 remark",
     "bench_virtual_bus_count.py", "behavioural"),
    ("E16", "competitiveness", "Section 4 proposal",
     "bench_competitiveness.py", "new"),
    ("E17", "compaction ablation", "Section 2.3 remark",
     "bench_ablation_compaction.py", "behavioural"),
    ("E18", "one vs two rings", "Section 2.1 remark",
     "bench_two_rings.py", "behavioural"),
    ("E19", "grid of rings", "Section 4 future work",
     "bench_grid_of_rings.py", "new"),
    ("E20", "multicast", "Sections 1/4 deferred extension",
     "bench_multicast.py", "new"),
    ("E21", "design-decision ablations", "DESIGN.md D1-D9",
     "bench_ablation_protocol.py", "new"),
    ("E22", "real-time streams", "Section 1 motivation",
     "bench_realtime_streams.py", "new"),
    ("E23", "access fairness", "Section 2.3 worry",
     "bench_fairness.py", "behavioural"),
    ("E24", "wire-delay scaling", "Section 3.2 Review",
     "bench_wire_length.py", "new"),
    ("E25", "latency vs offered load", "standard evaluation (omitted)",
     "bench_load_sweep.py", "new"),
    ("E26", "graceful degradation under faults", "DESIGN.md fault model",
     "bench_fault_sweep.py", "new"),
    ("E27", "admission control under overload", "DESIGN.md supervision model",
     "bench_admission_overload.py", "new"),
]

#: Every reproduced artefact, ordered as in DESIGN.md §5.
EXPERIMENTS: tuple[Experiment, ...] = tuple(
    Experiment(*row) for row in _RAW
)

def benchmarks_dir() -> pathlib.Path:
    """Repository ``benchmarks/`` directory (resolved from this file)."""
    return pathlib.Path(__file__).resolve().parents[3] / "benchmarks"


def registry_status(bench_dir: pathlib.Path) -> list[dict[str, object]]:
    """Per-experiment status rows: bench present? result archived?"""
    results_dir = bench_dir / "results"
    rows = []
    for experiment in EXPERIMENTS:
        bench_path = bench_dir / experiment.bench_module
        archived = any(
            path.name.startswith(experiment.result_file())
            for path in results_dir.glob("*.txt")
        ) if results_dir.exists() else False
        rows.append({
            "id": experiment.experiment_id,
            "title": experiment.title,
            "paper artefact": experiment.paper_artefact,
            "kind": experiment.kind,
            "bench exists": bench_path.exists(),
            "result archived": archived,
        })
    return rows
