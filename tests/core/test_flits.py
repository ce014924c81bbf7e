"""Unit tests for messages and lifecycle records."""

import pytest

from repro.core.flits import Message, MessageRecord
from repro.errors import ConfigurationError


def test_message_rejects_self_send():
    with pytest.raises(ConfigurationError):
        Message(message_id=0, source=3, destination=3, data_flits=1)


def test_message_rejects_negative_length():
    with pytest.raises(ConfigurationError):
        Message(message_id=0, source=0, destination=1, data_flits=-1)


def test_total_flits_includes_header_and_final():
    message = Message(0, 0, 1, data_flits=5)
    assert message.total_flits == 7


def test_zero_data_flits_allowed():
    message = Message(0, 0, 1, data_flits=0)
    assert message.total_flits == 2


def test_span_wraps_around_ring():
    message = Message(0, 6, 2, data_flits=1)
    assert message.span(8) == 4
    forward = Message(1, 2, 6, data_flits=1)
    assert forward.span(8) == 4
    neighbour = Message(2, 7, 0, data_flits=1)
    assert neighbour.span(8) == 1


def test_record_latency_requires_delivery():
    message = Message(0, 0, 1, data_flits=1, created_at=10.0)
    record = MessageRecord(message=message)
    assert record.latency() is None
    assert record.setup_time() is None
    assert not record.finished
    record.established_at = 25.0
    record.delivered_at = 40.0
    record.completed_at = 45.0
    assert record.setup_time() == 15.0
    assert record.latency() == 30.0
    assert record.finished
