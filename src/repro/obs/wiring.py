"""Observability wiring: the per-run bundle and the pull collectors.

:class:`Observability` is what a run carries: one
:class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.spans.SpanCollector`, and the level that decides how
much the engines record.  Engines accept ``obs: Optional[Observability]``
and cache ``obs is not None`` into a one-branch flag at construction —
exactly the trace-flag discipline — so a run built without observability
pays one predictable branch per site.

The collector classes scrape engine-owned state (kernel counters, grid
occupancy, routing aggregates, compaction stats) into gauges *at export
time only*.  This is the pull half of the registry: it costs nothing
during the run.
Collectors are plain class instances — never closures — so a ring
carrying an armed registry still checkpoints (the
:class:`~repro.sim.kernel.SimClock` pickling rule).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.obs.exporters import (
    prometheus_text,
    render_report,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover - annotations only (core imports us)
    from repro.core.compaction import CompactionEngine
    from repro.core.routing import RoutingEngine
    from repro.core.segments import SegmentGrid
    from repro.sim.kernel import Simulator

#: Recording levels, least to most detailed.  ``sampled`` records all
#: metrics but only 1-in-N spans; ``full`` records everything.  A run that
#: observes nothing carries no bundle at all.
OBS_LEVELS = ("sampled", "full")

#: Span sampling ratio at level ``sampled``: record messages whose id is
#: divisible by this.
SAMPLED_SPAN_EVERY = 8


class Observability:
    """The observability bundle one run carries.

    Args:
        level: one of :data:`OBS_LEVELS`; ``sampled`` records the spans
            of one message in :data:`SAMPLED_SPAN_EVERY`.

    Observation is strictly passive — no RNG draws, no scheduling — so
    attaching a bundle at any level never changes simulation results.
    """

    def __init__(self, level: str = "full") -> None:
        if level not in OBS_LEVELS:
            raise ConfigurationError(
                f"obs level must be one of {OBS_LEVELS}, got {level!r}")
        self.level = level
        self.registry = MetricsRegistry()
        self.spans = SpanCollector(
            sample_every=SAMPLED_SPAN_EVERY if level == "sampled" else 1)

    # ------------------------------------------------------------------
    # Export conveniences (thin wrappers over repro.obs.exporters)
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Current metrics in Prometheus text exposition format."""
        return prometheus_text(self.registry)

    def write_metrics(self, path: str) -> None:
        write_prometheus(self.registry, path)

    def write_spans(self, path: str) -> None:
        write_spans_jsonl(self.spans, path)

    def report(self) -> str:
        """The human ``obs report`` summary."""
        return render_report(self.registry, self.spans)


class KernelCollector:
    """Scrapes the simulation kernel: event throughput and queue depth."""

    def __init__(self, sim: "Simulator", registry: MetricsRegistry) -> None:
        self._sim = sim
        self._events = registry.gauge(
            "rmb_kernel_events_executed",
            help="Simulation events dispatched so far")
        self._pending = registry.gauge(
            "rmb_kernel_pending_events",
            help="Events currently queued in the kernel")
        self._now = registry.gauge(
            "rmb_kernel_time_ticks", help="Current simulation time")

    def __call__(self) -> None:
        snapshot = self._sim.metrics_snapshot()
        self._events.set(snapshot["events_executed"])
        self._pending.set(snapshot["pending_events"])
        self._now.set(snapshot["now"])


#: Routing-engine aggregate counters scraped by RingStateCollector, with
#: their HELP strings (the metric is ``rmb_routing_<attribute>``).
_ROUTING_SCRAPES = (
    ("injected", "Header flits inserted onto the ring"),
    ("established", "Circuits established (Hack reached the source)"),
    ("delivered", "Messages fully delivered (FF reached the destination)"),
    ("completed", "Messages completed (Fack returned, all ports freed)"),
    ("nacked", "Refusals by a busy destination or tap"),
    ("timed_out", "Header extension timeouts"),
    ("abandoned", "Messages abandoned after max_retries"),
    ("fault_nacked", "Refusals caused by faulty hardware"),
    ("fault_killed", "Live buses torn down by a segment death"),
    ("shed", "Submissions shed by admission control"),
    ("forced_teardowns", "Buses torn down by the watchdog"),
    ("flits_delivered", "Total flits delivered (taps included)"),
)


class RingStateCollector:
    """Scrapes one ring: routing aggregates, grid occupancy, live buses.

    ``ring`` labels every gauge with ``ring=<name>`` — fabric members
    sharing one registry each get their own instrument family.  ``None``
    (the default) keeps the historical unlabelled single-ring metrics.
    """

    def __init__(self, routing: "RoutingEngine", grid: "SegmentGrid",
                 registry: MetricsRegistry,
                 ring: Optional[str] = None) -> None:
        labels = {} if ring is None else {"ring": ring}
        self._routing = routing
        self._grid = grid
        self._scrapes = [
            (registry.gauge(f"rmb_routing_{attribute}", help=help_text,
                            **labels),
             attribute)
            for attribute, help_text in _ROUTING_SCRAPES
        ]
        self._utilization = registry.gauge(
            "rmb_grid_utilization", help="Fraction of segments occupied",
            **labels)
        self._live_buses = registry.gauge(
            "rmb_live_buses", help="Virtual buses currently holding segments",
            **labels)
        self._pending = registry.gauge(
            "rmb_pending_requests",
            help="Requests queued, deferred, in flight, or backing off",
            **labels)
        self._lanes = [
            registry.gauge("rmb_lane_occupied_segments",
                           help="Occupied segments per lane", lane=lane,
                           **labels)
            for lane in range(grid.lanes)
        ]

    def __call__(self) -> None:
        routing = self._routing
        for gauge, attribute in self._scrapes:
            gauge.set(getattr(routing, attribute))
        self._utilization.set(self._grid.utilization())
        self._live_buses.set(routing.live_bus_count())
        self._pending.set(routing.pending())
        for gauge, count in zip(self._lanes, self._grid.lane_occupancy()):
            gauge.set(count)


class CompactionCollector:
    """Scrapes compaction activity, including the D1 condition split.

    ``ring`` labels every gauge with ``ring=<name>`` (see
    :class:`RingStateCollector`).
    """

    def __init__(self, compaction: "CompactionEngine",
                 registry: MetricsRegistry,
                 ring: Optional[str] = None) -> None:
        labels = {} if ring is None else {"ring": ring}
        self._compaction = compaction
        self._registry = registry
        self._labels = labels
        self._moves = registry.gauge(
            "rmb_compaction_moves", help="Committed downward lane moves",
            **labels)
        self._cycles = registry.gauge(
            "rmb_compaction_cycles_run", help="Compaction cycles executed",
            **labels)
        self._evacuations = registry.gauge(
            "rmb_compaction_evacuations",
            help="Escape moves off dying segments", **labels)

    def __call__(self) -> None:
        stats = self._compaction.stats
        self._moves.set(stats.moves)
        self._cycles.set(stats.cycles_run)
        self._evacuations.set(stats.evacuations)
        # Condition labels (Figure 7 classification) are only known once
        # moves have happened, so these gauges materialise at scrape time.
        for condition, count in sorted(stats.condition_counts.items()):
            self._registry.gauge(
                "rmb_compaction_moves_by_condition",
                help="Committed moves split by register-sequence condition",
                condition=condition, **self._labels,
            ).set(count)
