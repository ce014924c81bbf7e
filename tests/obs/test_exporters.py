"""Exporter tests: Prometheus text shape, span JSONL, the human report."""

import json

import pytest

from repro.core import Message, RMBConfig, RMBRing
from repro.errors import ConfigurationError
from repro.obs import (
    Observability,
    SpanCollector,
    parse_prometheus_text,
    prometheus_text,
    render_report,
    spans_jsonl_lines,
)
from repro.obs.metrics import MetricsRegistry


def small_registry():
    registry = MetricsRegistry()
    registry.counter("rmb_hits_total", help="Hits", kind="a").inc(3)
    registry.counter("rmb_hits_total", kind="b").inc()
    registry.gauge("rmb_depth", help="Queue depth").set(2.5)
    hist = registry.histogram("rmb_wait", help="Wait ticks",
                              buckets=(1.0, 4.0))
    for value in (0.5, 2.0, 9.0):
        hist.observe(value)
    return registry


class TestPrometheusText:
    def test_headers_series_and_histogram_shape(self):
        text = prometheus_text(small_registry())
        lines = text.splitlines()
        assert "# HELP rmb_hits_total Hits" in lines
        assert "# TYPE rmb_hits_total counter" in lines
        assert 'rmb_hits_total{kind="a"} 3' in lines
        assert 'rmb_hits_total{kind="b"} 1' in lines
        assert "rmb_depth 2.5" in lines
        assert 'rmb_wait_bucket{le="1"} 1' in lines
        assert 'rmb_wait_bucket{le="4"} 2' in lines
        assert 'rmb_wait_bucket{le="+Inf"} 3' in lines
        assert "rmb_wait_sum 11.5" in lines
        assert "rmb_wait_count 3" in lines

    def test_headers_emitted_once_per_metric(self):
        text = prometheus_text(small_registry())
        assert text.count("# TYPE rmb_hits_total counter") == 1

    def test_integral_values_have_no_decimal_point(self):
        registry = MetricsRegistry()
        registry.gauge("rmb_flat").set(7.0)
        assert "rmb_flat 7\n" in prometheus_text(registry)

    def test_awkward_label_values_survive_the_round_trip(self):
        registry = MetricsRegistry()
        nasty = 'a\\b"c\nd'
        registry.counter("rmb_odd_total", kind=nasty).inc()
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert parsed[("rmb_odd_total", (("kind", nasty),))] == 1.0

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestPrometheusParser:
    @pytest.mark.parametrize("line", [
        "rmb_x not_a_number",
        'rmb_x{k="unterminated} 1',
        "# NOISE something",
        "# TYPE rmb_x flavour",
        'rmb_x{9bad="v"} 1',
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            parse_prometheus_text(line)

    def test_infinity_values_parse(self):
        parsed = parse_prometheus_text("rmb_x +Inf\nrmb_y -Inf")
        assert parsed[("rmb_x", ())] == float("inf")
        assert parsed[("rmb_y", ())] == float("-inf")


class TestSpanJsonl:
    def test_one_line_per_event_with_identity(self):
        collector = SpanCollector()
        collector.begin(Message(message_id=2, source=1, destination=4,
                                data_flits=3), 0.0)
        collector.event(2, 1.0, "inject", lane=2)
        lines = spans_jsonl_lines(collector)
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert rows[0] == {"msg": 2, "src": 1, "dst": 4, "t": 0.0,
                           "event": "submit", "flits": 3, "taps": 0}
        assert rows[1]["event"] == "inject"
        assert rows[1]["lane"] == 2

    def test_lines_have_deterministic_key_order(self):
        collector = SpanCollector()
        collector.begin(Message(message_id=0, source=0, destination=1,
                                data_flits=1), 0.0)
        line = spans_jsonl_lines(collector)[0]
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


class TestReport:
    def test_report_sections(self):
        registry = small_registry()
        spans = SpanCollector()
        spans.begin(Message(message_id=0, source=0, destination=2,
                            data_flits=1), 0.0)
        spans.event(0, 8.0, "complete")
        report = render_report(registry, spans)
        assert "== observability report ==" in report
        assert "counters:" in report
        assert "histograms (ticks):" in report
        assert "gauges" in report
        assert "spans: 1 recorded" in report
        assert "1 complete" in report


class TestObservabilityBundle:
    def test_levels_configure_sampling(self):
        assert Observability("full").spans.sample_every == 1
        assert Observability("sampled").spans.sample_every == 8
        for level in ("off", "verbose"):
            with pytest.raises(ConfigurationError, match="obs level"):
                Observability(level)

    def test_armed_ring_exports_valid_prometheus(self, tmp_path):
        obs = Observability("full")
        config = RMBConfig(nodes=8, lanes=3)
        ring = RMBRing(config, seed=3, probe_period=16.0, obs=obs)
        ring.submit_all(
            Message(message_id=i, source=i % 8,
                    destination=(i + 3) % 8, data_flits=2)
            for i in range(6))
        ring.run(60.0)
        ring.drain()
        metrics_path = tmp_path / "metrics.prom"
        spans_path = tmp_path / "spans.jsonl"
        obs.write_metrics(str(metrics_path))
        obs.write_spans(str(spans_path))
        parsed = parse_prometheus_text(metrics_path.read_text())
        assert parsed[("rmb_routing_completed", ())] == 6.0
        assert parsed[("rmb_setup_latency_ticks_count", ())] >= 6.0
        assert ("rmb_lane_occupied_segments", (("lane", "0"),)) in parsed
        rows = [json.loads(line)
                for line in spans_path.read_text().splitlines()]
        assert {row["event"] for row in rows} >= {
            "submit", "inject", "hack", "established", "first_data",
            "delivered", "complete"}
        report = obs.report()
        assert "spans: 6 recorded" in report
