"""Messages and their lifecycle records.

Paper Section 2.2: a request is a **header flit** (HF) carrying the
destination address, followed by **data flits** (DF) and a **final flit**
(FF).  Four acknowledgement signals travel the opposite direction on the
same virtual bus: **Hack** (header accepted, data may flow), **Dack**
(data-flit flow control), **Fack** (teardown: frees ports as it passes) and
**Nack** (refusal: releases the partial virtual bus).

The simulator is phase-based rather than per-flit: a :class:`Message`
carries its flit count, and a :class:`MessageRecord` the times of its
lifecycle steps (injection, Hack return, FF delivery, Fack return).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

# ``dataclass(slots=True)`` needs 3.10+; on 3.9 these classes simply keep
# their __dict__.  Messages and their records are the highest-volume
# allocations in a run, so the slot layout is worth the version gate.
_SLOTS: dict = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class Message:
    """An application-level message offered to the network.

    Attributes:
        message_id: unique id assigned by the workload driver.
        source: sending node index.
        destination: receiving node index (must differ from source).  For
            a multicast this is the *last* stop in clockwise order.
        data_flits: number of DFs between the HF and the FF.
        created_at: simulation time the PE issued the request.
        extra_destinations: additional receivers *tapped* along the
            virtual bus (the paper's Section 1 multicast extension,
            implemented here).  Each must lie strictly between ``source``
            and ``destination`` in clockwise order; every listed node
            reads the same flit stream as it passes.
    """

    message_id: int
    source: int
    destination: int
    data_flits: int
    created_at: float = 0.0
    extra_destinations: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError(
                f"message {self.message_id}: source == destination "
                f"({self.source}); the RMB carries no self-messages"
            )
        if self.data_flits < 0:
            raise ConfigurationError(
                f"message {self.message_id}: negative data_flits"
            )
        stops = set(self.extra_destinations)
        if len(stops) != len(self.extra_destinations):
            raise ConfigurationError(
                f"message {self.message_id}: duplicate extra destinations"
            )
        if self.source in stops or self.destination in stops:
            raise ConfigurationError(
                f"message {self.message_id}: extra destinations must "
                "differ from both endpoints"
            )

    @property
    def fan_out(self) -> int:
        """Number of receivers (1 for unicast)."""
        return 1 + len(self.extra_destinations)

    def validate_multicast_order(self, ring_size: int) -> None:
        """Check every tap lies strictly inside the clockwise span.

        Raises:
            ConfigurationError: when a tap is outside ``source ->
                destination`` clockwise, so the header would never pass it.
        """
        span = self.span(ring_size)
        for stop in self.extra_destinations:
            offset = (stop - self.source) % ring_size
            if not 0 < offset < span:
                raise ConfigurationError(
                    f"message {self.message_id}: tap {stop} is not on the "
                    f"clockwise path {self.source}->{self.destination}"
                )

    @property
    def total_flits(self) -> int:
        """HF + DFs + FF."""
        return self.data_flits + 2

    def span(self, ring_size: int) -> int:
        """Clockwise hop count from source to destination on an N-ring."""
        return (self.destination - self.source) % ring_size


@dataclass(**_SLOTS)
class MessageRecord:
    """Lifecycle timestamps and counters for one message, filled by the
    routing engine and consumed by :mod:`repro.core.stats`.

    Times are ``None`` until the corresponding event happens.
    """

    message: Message
    injected_at: Optional[float] = None      # HF entered the top lane
    established_at: Optional[float] = None   # Hack returned to the source
    delivered_at: Optional[float] = None     # FF reached the destination
    completed_at: Optional[float] = None     # Fack returned, ports freed
    nacks: int = 0                           # refusals by the destination
    retries: int = 0                         # re-injections after Nack
    head_stall_ticks: int = 0                # ticks the HF spent blocked
    lanes_visited: set[int] = field(default_factory=set)
    tap_delivered_at: dict[int, float] = field(default_factory=dict)
    fault_kills: int = 0                     # virtual buses lost to faults
    fault_nacks: int = 0                     # refusals due to dead hardware
    first_fault_at: Optional[float] = None   # first fault that hit this message
    abandoned: bool = False                  # gave up after max_retries
    shed: bool = False                       # refused by admission control
    deferred: int = 0                        # times held in the admission queue
    backoff_floor: int = 0                   # attempts forgiven by the watchdog

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    @property
    def fault_hit(self) -> bool:
        """True iff a fault ever disrupted this message's delivery."""
        return self.fault_kills > 0 or self.fault_nacks > 0

    def recovery_time(self) -> Optional[float]:
        """Ticks from the first fault hit to eventual completion.

        ``None`` when the message was never hit by a fault or has not
        (yet) completed — the degraded-mode "time-to-recover" metric.
        """
        if self.first_fault_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.first_fault_at

    def latency(self) -> Optional[float]:
        """Request-to-delivery latency, or ``None`` if still in flight."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.message.created_at

    def setup_time(self) -> Optional[float]:
        """Request-to-circuit-established time, or ``None``."""
        if self.established_at is None:
            return None
        return self.established_at - self.message.created_at
