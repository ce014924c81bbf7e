"""Per-segment circuit breakers: quarantine flapping hardware.

A segment that fails once is handled fine by the fault layer — evacuation
moves its occupant off make-before-break and retries route around it.  A
segment that *flaps* (fail → repair → fail in quick succession) is worse
than a dead one: every repair invites traffic back onto hardware about to
fail again, converting each flap into fresh teardowns and retry load.

:class:`CircuitBreaker` is the standard remedy, specialised to one
``(segment, lane)`` target:

* **closed** — healthy operation; failures are counted in a sliding
  window.
* **open** — the target tripped (:data:`FAILURE_THRESHOLD` failures
  within :data:`FAILURE_WINDOW` ticks): it is *quarantined*.  The owning
  :class:`~repro.resilience.recovery.RecoveryManager` holds the segment
  at DYING even across plan repairs, so no new virtual bus touches it.
* **half-open** — the quarantine timer expired: the segment is readmitted
  *on probation*.  One more failure within :data:`PROBE_TICKS` re-opens
  the breaker with its timeout doubled (up to :data:`MAX_OPEN_TICKS`); a
  quiet probation closes it and the failure history is forgiven.

The breaker is pure bookkeeping over ``(event, now)`` pairs — it touches
no grid state itself, which keeps it trivially picklable and unit-testable;
acting on its verdicts is the recovery manager's job.
"""

from __future__ import annotations

from typing import List

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Failures within :data:`FAILURE_WINDOW` that trip a closed breaker: an
#: isolated outage is tolerated, flapping trips it.
FAILURE_THRESHOLD = 3
#: Sliding-window width (ticks) for counting failures.
FAILURE_WINDOW = 400.0
#: Quarantine duration after the first trip.
OPEN_TICKS = 256.0
#: Probation length after readmission: a failure inside it re-opens, a
#: quiet probation closes.
PROBE_TICKS = 256.0
#: Open-duration multiplier per consecutive re-trip.
OPEN_BACKOFF = 2.0
#: Cap on the backed-off quarantine duration.
MAX_OPEN_TICKS = 4096.0


class CircuitBreaker:
    """Failure accounting and state machine for one quarantine target."""

    __slots__ = ("state", "failures", "opened_at", "current_open_ticks",
                 "probation_until", "trips")

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures: List[float] = []   # failure times inside the window
        self.opened_at = 0.0
        self.current_open_ticks = OPEN_TICKS
        self.probation_until = 0.0
        self.trips = 0                    # lifetime open transitions

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def record_failure(self, now: float) -> bool:
        """Book one failure of the target; returns True when this trips.

        A failure while already open is absorbed silently (the target is
        quarantined; the plan may still announce outages against it).  A
        failure on probation re-opens with the backed-off timeout.
        """
        if self.state == BREAKER_OPEN:
            return False
        if self.state == BREAKER_HALF_OPEN:
            self._open(now, backoff=True)
            return True
        self.failures.append(now)
        self._prune(now)
        if len(self.failures) >= FAILURE_THRESHOLD:
            self._open(now, backoff=False)
            return True
        return False

    def quarantine_expired(self, now: float) -> bool:
        """True when an open breaker's quarantine timer has run out."""
        return (self.state == BREAKER_OPEN
                and now - self.opened_at >= self.current_open_ticks)

    def begin_probation(self, now: float) -> None:
        """Open → half-open: the target is readmitted on probation."""
        assert self.state == BREAKER_OPEN
        self.state = BREAKER_HALF_OPEN
        self.probation_until = now + PROBE_TICKS

    def probation_expired(self, now: float) -> bool:
        """True when a half-open breaker survived its whole probation."""
        return self.state == BREAKER_HALF_OPEN and now >= self.probation_until

    def close(self) -> None:
        """Half-open → closed: probation passed; history is forgiven."""
        assert self.state == BREAKER_HALF_OPEN
        self.state = BREAKER_CLOSED
        self.failures.clear()
        self.current_open_ticks = OPEN_TICKS

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open(self, now: float, backoff: bool) -> None:
        if backoff:
            self.current_open_ticks = min(
                self.current_open_ticks * OPEN_BACKOFF, MAX_OPEN_TICKS)
        self.state = BREAKER_OPEN
        self.opened_at = now
        self.trips += 1
        self.failures.clear()

    def _prune(self, now: float) -> None:
        cutoff = now - FAILURE_WINDOW
        if self.failures and self.failures[0] < cutoff:
            self.failures = [t for t in self.failures if t >= cutoff]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker(state={self.state}, "
                f"failures={len(self.failures)}, trips={self.trips})")
