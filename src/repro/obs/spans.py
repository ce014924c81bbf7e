"""Per-message span timelines.

A *span* is the observable lifecycle of one message, recorded as an
ordered list of timestamped events.  The milestone vocabulary follows
the protocol's flit/ack language (see :mod:`repro.core.flits`):

``submit``
    the PE handed the request to its INC (span start; carries source,
    destination and flit count);
``shed`` / ``defer`` / ``admit_deferred``
    admission-control outcomes;
``inject``
    the HF entered its insertion lane (paper: top-bus-only insertion);
``hack`` / ``nack``
    the destination accepted (Hack starts walking back) or refused;
``established``
    the Hack reached the source — the circuit is up, data may flow;
``first_data``
    the first DF left the source;
``delivered`` / ``tap_delivered``
    the FF reached the destination (or a multicast tap);
``complete``
    the Fack returned and every port was freed (span end);
``lane_move``
    compaction migrated one hop of the message's virtual bus (segment,
    lane_from → lane_to attached) — the paper's Figure 5 process, per
    message;
``fault_nack`` / ``fault_kill`` / ``header_timeout`` / ``retry`` /
``abandon`` / ``watchdog_teardown``
    the refusal/recovery machinery.

Span recording is deterministic for a fixed seed (event times come from
the simulation clock), which is what makes the committed golden JSONL
fixtures in ``tests/fixtures/`` byte-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.core.flits import Message


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped occurrence inside a span."""

    time: float
    kind: str
    attrs: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default


class Span:
    """The event timeline of one message."""

    __slots__ = ("message_id", "source", "destination", "events")

    def __init__(self, message_id: int, source: int, destination: int) -> None:
        self.message_id = message_id
        self.source = source
        self.destination = destination
        self.events: list[SpanEvent] = []

    def add(self, time: float, kind: str, **attrs: Any) -> None:
        self.events.append(
            SpanEvent(time, kind, tuple(sorted(attrs.items()))))

    def first(self, kind: str) -> Optional[SpanEvent]:
        """Earliest event of ``kind``, or ``None``."""
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def of_kind(self, kind: str) -> list[SpanEvent]:
        return [event for event in self.events if event.kind == kind]

    def duration(self) -> Optional[float]:
        """submit → complete span length, ``None`` while incomplete."""
        start = self.first("submit")
        end = self.first("complete")
        if start is None or end is None:
            return None
        return end.time - start.time

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self.events)


class SpanCollector:
    """Accumulates spans, optionally sampling 1-in-N messages.

    Args:
        sample_every: record only messages whose id is divisible by this
            (1 = record everything).  Sampling by id rather than by a
            random draw keeps span output deterministic and keeps the
            simulation's RNG streams untouched.

    A span exists only if :meth:`begin` created it, so :meth:`event`
    on an unsampled message is a dictionary miss and nothing more —
    instrumentation sites never need to know about sampling.
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self._spans: dict[int, Span] = {}

    def begin(self, message: Message, time: float) -> None:
        """Open the span for ``message`` with its ``submit`` event."""
        if message.message_id % self.sample_every != 0:
            return
        if message.message_id in self._spans:
            return  # duplicate submit is the routing engine's error to raise
        span = Span(message.message_id, message.source, message.destination)
        span.add(time, "submit", flits=message.data_flits,
                 taps=len(message.extra_destinations))
        self._spans[message.message_id] = span

    def event(self, message_id: int, time: float, kind: str,
              **attrs: Any) -> None:
        """Append an event to an open span (no-op when unsampled)."""
        span = self._spans.get(message_id)
        if span is not None:
            span.add(time, kind, **attrs)

    def spans(self) -> list[Span]:
        """Every recorded span, ordered by message id."""
        return [self._spans[key] for key in sorted(self._spans)]

    def get(self, message_id: int) -> Optional[Span]:
        return self._spans.get(message_id)

    def __len__(self) -> int:
        return len(self._spans)
