"""Unit tests for the event queue primitives."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    order = []
    queue.push(5.0, lambda: order.append("b"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(9.0, lambda: order.append("c"))
    while queue:
        queue.pop().callback()
    assert order == ["a", "b", "c"]


def test_same_time_orders_by_insertion():
    queue = EventQueue()
    order = []
    for name in ("n1", "n2", "n3", "n4"):
        queue.push(1.0, lambda name=name: order.append(name))
    while queue:
        queue.pop().callback()
    assert order == ["n1", "n2", "n3", "n4"]


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SchedulingError):
        queue.pop()


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: "keep")
    drop = queue.push(0.5, lambda: "drop")
    drop.cancel()
    queue.note_cancelled()
    assert len(queue) == 1
    assert queue.pop() is keep


def test_len_tracks_live_events():
    queue = EventQueue()
    assert len(queue) == 0
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.pop()
    assert len(queue) == 1


def test_drain_empties_queue_in_order():
    queue = EventQueue()
    queue.push(3.0, lambda: None, label="c")
    queue.push(1.0, lambda: None, label="a")
    queue.push(2.0, lambda: None, label="b")
    labels = [event.label for event in queue.drain()]
    assert labels == ["a", "b", "c"]
    assert not queue


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert event.cancelled
