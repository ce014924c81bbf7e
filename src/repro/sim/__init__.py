"""Discrete-event simulation substrate.

A self-contained callback-style event kernel, clock domains with
skew/jitter for modelling asynchronous hardware, deterministic named random
streams, tracing, and measurement accumulators.
"""

from repro.sim.clock import ClockDomain, skewed_domains
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator, every
from repro.sim.monitor import Tally, TimeSeries, percentile
from repro.sim.rng import RandomStream, SeedSequence
from repro.sim.trace import TraceEntry, TraceRecorder

__all__ = [
    "ClockDomain",
    "Event",
    "EventQueue",
    "RandomStream",
    "SeedSequence",
    "Simulator",
    "Tally",
    "TimeSeries",
    "TraceEntry",
    "TraceRecorder",
    "every",
    "percentile",
    "skewed_domains",
]
