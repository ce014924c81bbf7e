"""Closed-form latency model for an unloaded RMB ring.

The protocol's timing decomposes exactly on an idle network (no
contention, no retries); the model below is validated tick-for-tick
against the simulator in ``tests/analysis/test_latency_model.py``, which
pins down the engine's timing semantics and guards against accidental
off-by-one regressions in the hot path.

In flit ticks (one tick is one flit hop), with clockwise span ``s``
(segments crossed):

* **injection** — 1 flit tick (the HF enters the top lane);
* **header transit** — ``s - 1`` further ticks to reach the destination;
* **Hack return** — ``s`` ticks back along the virtual bus;
* **data streaming** — ``L`` ticks: the first data flit is emitted in
  the same tick the Hack lands, and the FF's emission tick is absorbed
  into the drain phase;
* **FF drain** — ``s`` ticks to the destination: *delivery*;
* **teardown** — ``s`` more ticks of Fack walk until the source's ports
  free: *completion*.

All phase boundaries in the engine land on flit-tick edges, so each
phase contributes an integral number of ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-phase tick counts for one unloaded transfer."""

    injection: float
    header_transit: float
    ack_return: float
    streaming: float
    drain: float
    teardown: float

    @property
    def setup(self) -> float:
        """Request to circuit-established (Hack at the source)."""
        return self.injection + self.header_transit + self.ack_return

    @property
    def delivery(self) -> float:
        """Request to last flit at the destination."""
        return self.setup + self.streaming + self.drain

    @property
    def completion(self) -> float:
        """Request to all ports freed at the source."""
        return self.delivery + self.teardown

    def as_dict(self) -> dict[str, float]:
        return {
            "injection": self.injection,
            "header_transit": self.header_transit,
            "ack_return": self.ack_return,
            "streaming": self.streaming,
            "drain": self.drain,
            "teardown": self.teardown,
            "setup": self.setup,
            "delivery": self.delivery,
            "completion": self.completion,
        }


def unloaded_latency(span: int, data_flits: int) -> LatencyBreakdown:
    """Phase breakdown for a lone message crossing ``span`` segments.

    Raises:
        ConfigurationError: for a non-positive span or negative payload.
    """
    if span < 1:
        raise ConfigurationError(f"span must be >= 1, got {span}")
    if data_flits < 0:
        raise ConfigurationError("data_flits must be >= 0")
    return LatencyBreakdown(
        injection=1.0,
        header_transit=float(span - 1),
        ack_return=float(span),
        streaming=float(data_flits),
        drain=float(span),
        teardown=float(span),
    )


def efficiency(data_flits: int, span: int) -> float:
    """Fraction of a transfer's lifetime spent moving payload."""
    breakdown = unloaded_latency(span, data_flits)
    return breakdown.streaming / breakdown.completion
