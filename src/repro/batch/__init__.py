"""Vectorized batch backend: the protocol tables replayed with numpy.

The event backend (:mod:`repro.core`) interprets the declarative
lifecycle and handshake tables one heap event at a time.  This package
compiles the lifecycle table into dense integer transition/effect matrices
(:mod:`repro.batch.compile`), keeps all per-message / per-bus /
per-segment state in parallel numpy arrays (:mod:`repro.batch.state`),
and advances the whole network one tick at a time with masked array
operations plus an idle fast-forward (:mod:`repro.batch.engine`).

The event backend remains the conformance oracle: fixed-seed
differential tests (``tests/batch/``) require identical delivered
counts, final grid signatures and stats summaries from both backends.
See DESIGN.md §14 for the architecture and the feature subset the
batch backend models.
"""

from repro.batch.compile import CompiledLifecycle, compile_lifecycle
from repro.batch.engine import BatchRing, replay_on_batch
from repro.batch.state import BatchState

__all__ = [
    "BatchRing",
    "BatchState",
    "CompiledLifecycle",
    "compile_lifecycle",
    "replay_on_batch",
]
