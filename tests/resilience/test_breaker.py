"""Unit tests for the circuit-breaker state machine."""

from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.breaker import (
    FAILURE_THRESHOLD,
    FAILURE_WINDOW,
    MAX_OPEN_TICKS,
    OPEN_BACKOFF,
    OPEN_TICKS,
    PROBE_TICKS,
)


def opened(at: float = 0.0) -> CircuitBreaker:
    """A breaker tripped by :data:`FAILURE_THRESHOLD` failures at ``at``."""
    breaker = CircuitBreaker()
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(at)
    assert breaker.state == BREAKER_OPEN
    return breaker


class TestClosedState:
    def test_starts_closed(self):
        assert CircuitBreaker().state == BREAKER_CLOSED

    def test_below_threshold_stays_closed(self):
        breaker = CircuitBreaker()
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(10.0)
        assert breaker.state == BREAKER_CLOSED

    def test_threshold_trips(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(10.0)
        assert breaker.record_failure(20.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1

    def test_window_prunes_old_failures(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(10.0)
        # Both earlier failures have left the window one tick later.
        assert not breaker.record_failure(10.0 + FAILURE_WINDOW + 1.0)
        assert breaker.state == BREAKER_CLOSED


class TestOpenState:
    def test_failures_absorbed_while_open(self):
        breaker = opened()
        assert not breaker.record_failure(1.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1

    def test_quarantine_expiry(self):
        breaker = opened()
        assert not breaker.quarantine_expired(OPEN_TICKS - 1.0)
        assert breaker.quarantine_expired(OPEN_TICKS)

    def test_probation_transition(self):
        breaker = opened()
        breaker.begin_probation(OPEN_TICKS)
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.probation_expired(OPEN_TICKS + PROBE_TICKS - 1.0)
        assert breaker.probation_expired(OPEN_TICKS + PROBE_TICKS)


class TestHalfOpenState:
    def test_quiet_probation_closes_and_forgives(self):
        breaker = opened()
        breaker.begin_probation(OPEN_TICKS)
        breaker.close()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.failures == []
        assert breaker.current_open_ticks == OPEN_TICKS

    def test_probation_failure_reopens_with_backoff(self):
        breaker = opened()
        breaker.begin_probation(OPEN_TICKS)
        reopen = OPEN_TICKS + 10.0
        assert breaker.record_failure(reopen)
        assert breaker.state == BREAKER_OPEN
        doubled = OPEN_TICKS * OPEN_BACKOFF
        assert breaker.current_open_ticks == doubled
        assert breaker.trips == 2
        # Quarantine now runs for the doubled window.
        assert not breaker.quarantine_expired(reopen + doubled - 1.0)
        assert breaker.quarantine_expired(reopen + doubled)

    def test_backoff_caps_at_max_open_ticks(self):
        breaker = opened()
        now = 0.0
        for _ in range(8):
            now += breaker.current_open_ticks
            breaker.begin_probation(now)
            breaker.record_failure(now + 1.0)
        assert breaker.current_open_ticks == MAX_OPEN_TICKS

    def test_close_resets_backoff(self):
        breaker = opened()
        breaker.begin_probation(OPEN_TICKS)
        breaker.record_failure(OPEN_TICKS + 1.0)   # reopen, doubled
        breaker.begin_probation(4 * OPEN_TICKS)
        breaker.close()
        assert breaker.current_open_ticks == OPEN_TICKS


class TestConfigValidation:
    def test_defaults_valid(self):
        assert FAILURE_THRESHOLD >= 1
        assert FAILURE_WINDOW > 0
        assert OPEN_TICKS > 0
        assert PROBE_TICKS > 0
        assert OPEN_BACKOFF >= 1.0
        assert MAX_OPEN_TICKS >= OPEN_TICKS
