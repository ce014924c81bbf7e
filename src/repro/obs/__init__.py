"""Observability layer: metrics registry, per-message spans, exporters.

The paper's evaluation hinges on per-message quantities — setup latency,
Nack/retry counts, lane occupancy under compaction, odd/even cycle
progress — that :class:`~repro.core.stats.RunStats` only reports as
end-of-run aggregates.  This package gives every layer built in PRs 1–3
one consistent instrumentation API:

* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms (with quantile estimates), plus pull-style *collectors*
  that scrape engine state at export time for zero run-time cost;
* :class:`SpanCollector` — a per-message event timeline (HF-inserted →
  Hack → first-DF → Fack/Nack, with compaction lane migrations
  attached);
* exporters — Prometheus text format, a JSONL span stream, and a human
  ``obs report`` summary.

Instrumentation follows the same one-branch discipline as the PR 3
trace flag: every engine caches ``obs is not None`` at construction, so
a run built without observability pays one predictable branch per site
and nothing else.
Observation is strictly passive — no RNG draws, no scheduling — so
enabling it never changes simulation results (property-tested in
``tests/integration/test_obs_equivalence.py``).
"""

from repro.obs.exporters import (
    escape_help,
    escape_label_value,
    parse_prometheus_text,
    prometheus_text,
    render_report,
    spans_jsonl_lines,
    unescape_label_value,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanCollector, SpanEvent
from repro.obs.wiring import (
    OBS_LEVELS,
    CompactionCollector,
    KernelCollector,
    Observability,
    RingStateCollector,
)

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "OBS_LEVELS",
    "CompactionCollector",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelCollector",
    "MetricsRegistry",
    "Observability",
    "RingStateCollector",
    "Span",
    "SpanCollector",
    "SpanEvent",
    "escape_help",
    "escape_label_value",
    "parse_prometheus_text",
    "prometheus_text",
    "render_report",
    "spans_jsonl_lines",
    "unescape_label_value",
    "write_prometheus",
    "write_spans_jsonl",
]
