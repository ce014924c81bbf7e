"""Unit tests for span timelines and the sampling collector."""

import pytest

from repro.core import Message
from repro.obs import Span, SpanCollector


def message(message_id, source=0, destination=3, flits=2):
    return Message(message_id=message_id, source=source,
                   destination=destination, data_flits=flits)


class TestSpan:
    def test_events_keep_insertion_order(self):
        span = Span(1, 0, 3)
        span.add(0.0, "submit", flits=2)
        span.add(1.0, "inject", lane=2)
        span.add(4.0, "established")
        assert [event.kind for event in span] == [
            "submit", "inject", "established"]
        assert len(span) == 3

    def test_first_and_of_kind(self):
        span = Span(1, 0, 3)
        span.add(1.0, "nack", busy="destination")
        span.add(5.0, "nack", busy="at_node")
        assert span.first("nack").time == 1.0
        assert [event.time for event in span.of_kind("nack")] == [1.0, 5.0]
        assert span.first("hack") is None

    def test_attrs_are_sorted_and_readable(self):
        span = Span(1, 0, 3)
        span.add(2.0, "lane_move", segment=4, lane_from=2, lane_to=1)
        event = span.first("lane_move")
        assert event.attrs == (("lane_from", 2), ("lane_to", 1),
                               ("segment", 4))
        assert event.get("segment") == 4
        assert event.get("missing", -1) == -1

    def test_duration_needs_submit_and_complete(self):
        span = Span(1, 0, 3)
        assert span.duration() is None
        span.add(2.0, "submit")
        assert span.duration() is None
        span.add(12.5, "complete")
        assert span.duration() == pytest.approx(10.5)


class TestSpanCollector:
    def test_begin_records_submit_with_shape(self):
        collector = SpanCollector()
        collector.begin(message(7, source=1, destination=5, flits=4), 3.0)
        span = collector.get(7)
        assert (span.source, span.destination) == (1, 5)
        submit = span.first("submit")
        assert submit.time == 3.0
        assert submit.get("flits") == 4

    def test_event_on_unknown_message_is_a_noop(self):
        collector = SpanCollector()
        collector.event(99, 1.0, "inject")
        assert len(collector) == 0

    def test_sampling_keeps_only_divisible_ids(self):
        collector = SpanCollector(sample_every=4)
        for mid in range(10):
            collector.begin(message(mid), 0.0)
            collector.event(mid, 1.0, "inject")
        assert [span.message_id for span in collector.spans()] == [0, 4, 8]

    def test_duplicate_begin_is_ignored(self):
        collector = SpanCollector()
        collector.begin(message(1), 0.0)
        collector.begin(message(1), 5.0)
        assert len(collector.get(1).events) == 1

    def test_spans_sorted_by_message_id(self):
        collector = SpanCollector()
        for mid in (5, 1, 3):
            collector.begin(message(mid), 0.0)
        assert [span.message_id for span in collector.spans()] == [1, 3, 5]

    def test_rejects_nonpositive_sampling(self):
        with pytest.raises(ValueError, match="sample_every"):
            SpanCollector(sample_every=0)
