"""Analysis layer: cost models, bisection, offline scheduling, tables."""

from repro.analysis.bisection import (
    ANALYTIC_BISECTION,
    dimension_half,
    empirical_bisection,
)
from repro.analysis.competitive import (
    CompetitivenessReport,
    measure_competitiveness,
)
from repro.analysis.cost import (
    COST_MODELS,
    CostRow,
    area_advantage,
    cost_table,
    ehc_cost,
    fattree_cost,
    gfc_cost,
    hypercube_cost,
    mesh_cost,
    rmb_cost,
    wire_delay_factor,
)
from repro.analysis.latency_model import (
    LatencyBreakdown,
    efficiency,
    unloaded_latency,
)
from repro.analysis.offline import (
    OfflineSchedule,
    ScheduledMessage,
    greedy_schedule,
    lower_bound,
    service_time,
    verify_schedule,
)
from repro.analysis.tables import render_comparison, render_series, render_table

__all__ = [
    "ANALYTIC_BISECTION",
    "COST_MODELS",
    "CompetitivenessReport",
    "CostRow",
    "LatencyBreakdown",
    "OfflineSchedule",
    "ScheduledMessage",
    "area_advantage",
    "cost_table",
    "dimension_half",
    "efficiency",
    "ehc_cost",
    "empirical_bisection",
    "fattree_cost",
    "gfc_cost",
    "greedy_schedule",
    "hypercube_cost",
    "lower_bound",
    "measure_competitiveness",
    "mesh_cost",
    "render_comparison",
    "render_series",
    "render_table",
    "rmb_cost",
    "service_time",
    "unloaded_latency",
    "verify_schedule",
    "wire_delay_factor",
]
