"""Per-INC admission control: bounded outstanding load under overload.

The RMB's retry protocol keeps the *segments* safe under any load, but
nothing in the paper bounds the work a single PE may pile onto its INC:
under sustained overload the per-node queues (and hence latency) grow
without bound, and retry storms amplify the collapse.  Real ring
interconnects ship throttling for exactly this reason (cf. the
overload-aware injection control in hierarchical-ring NoCs).

:class:`AdmissionController` is the policy half of supervision design
decision S2: it decides, per submission, whether a source whose
outstanding count (queued + in-flight + awaiting-retry, see
:meth:`repro.core.routing.RoutingEngine.outstanding`) has reached the
configured cap should have the new request **shed** (refused outright) or
**deferred** (held in a per-INC holding queue until capacity frees).  The
mechanism half — the holding queues and their release — lives in the
routing engine, which owns the queues being protected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

#: decide() verdicts.
ADMIT = "admit"
SHED = "shed"
DEFER = "defer"


class AdmissionController:
    """Shed-or-defer admission policy for one ring.

    Args:
        limit: max outstanding requests per source INC (``None`` = no cap,
            every submission is admitted).
        policy: ``"shed"`` or ``"defer"`` — what happens to a submission
            that would exceed the cap.
    """

    def __init__(self, limit: Optional[int] = None,
                 policy: str = "defer") -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        if policy not in (SHED, DEFER):
            raise ValueError(f"admission policy must be 'shed' or 'defer', "
                             f"got {policy!r}")
        self.limit = limit
        self.policy = policy
        self.admitted = 0
        self.shed = 0
        self.deferred = 0
        self.released = 0
        self.peak_outstanding = 0
        # Populated by attach_metrics(): verdict -> Counter, plus the
        # released counter.  None keeps decide() at one extra branch for
        # unobserved runs.
        self._metric_verdicts: Optional[dict] = None
        self._metric_released = None

    @property
    def enabled(self) -> bool:
        return self.limit is not None

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Register per-verdict decision counters with ``registry``.

        Admission decisions become first-class metrics: the push side of
        supervision observability (the flat :meth:`summary` remains the
        run-report path).
        """
        self._metric_verdicts = {
            verdict: registry.counter(
                "rmb_admission_decisions_total",
                help="Admission verdicts by outcome", verdict=verdict)
            for verdict in (ADMIT, SHED, DEFER)
        }
        self._metric_released = registry.counter(
            "rmb_admission_released_total",
            help="Deferred requests released into the real queues")

    def decide(self, outstanding: int) -> str:
        """Verdict for one submission given the source's outstanding count."""
        self.peak_outstanding = max(self.peak_outstanding, outstanding)
        if self.limit is None or outstanding < self.limit:
            verdict = ADMIT
            self.admitted += 1
        elif self.policy == SHED:
            verdict = SHED
            self.shed += 1
        else:
            verdict = DEFER
            self.deferred += 1
        if self._metric_verdicts is not None:
            self._metric_verdicts[verdict].inc()
        return verdict

    @property
    def holding(self) -> bool:
        """Is a deferred request held that a set limit may release?"""
        return self.limit is not None and self.deferred != self.released

    def may_release(self, outstanding: int) -> bool:
        """May one deferred request be admitted now?"""
        return self.limit is None or outstanding < self.limit

    def note_released(self) -> None:
        """A deferred request left the holding queue for the real queue."""
        self.released += 1
        if self._metric_released is not None:
            self._metric_released.inc()

    def summary(self) -> dict[str, float]:
        """Flat counters for run reports."""
        return {
            "admission_limit": float(self.limit) if self.limit else 0.0,
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "deferred": float(self.deferred),
            "released": float(self.released),
            "peak_outstanding": float(self.peak_outstanding),
        }
