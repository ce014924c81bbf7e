"""Independent clock domains.

The paper assumes "individual INCs operate off independent clocks and the
timing of communications on the virtual buses is entirely independent of
these clocks" (Section 2.5).  :class:`ClockDomain` models one such clock:
a nominal period, a fixed per-domain frequency offset, and per-edge jitter.
The RMB cycle controller subscribes to its INC's domain; the correctness
experiments (Lemma 1) drive every INC from a differently-skewed domain and
check that the handshake still bounds cycle skew.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStream


class ClockDomain:
    """A free-running clock delivering edges to one subscriber.

    Args:
        sim: owning simulator.
        period: nominal tick period (> 0).
        offset: phase of the first edge (>= 0).
        drift: multiplicative frequency error; the effective period is
            ``period * (1 + drift)``.  ``drift=-0.05`` runs 5% fast.
        jitter: maximum absolute per-edge jitter, drawn uniformly from
            ``[-jitter, +jitter]`` via ``rng``; clamped so time advances.
        rng: random stream for jitter (required when ``jitter > 0``).
        name: label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        offset: float = 0.0,
        drift: float = 0.0,
        jitter: float = 0.0,
        rng: Optional[RandomStream] = None,
        name: str = "clock",
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"clock period must be > 0, got {period}")
        if offset < 0:
            raise ConfigurationError(f"clock offset must be >= 0, got {offset}")
        if drift <= -1.0:
            raise ConfigurationError(f"drift {drift} makes the period non-positive")
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        if jitter > 0 and rng is None:
            raise ConfigurationError("jitter > 0 requires an rng stream")
        effective = period * (1.0 + drift)
        if jitter >= effective:
            raise ConfigurationError(
                f"jitter {jitter} must be smaller than the period {effective}"
            )
        self.sim = sim
        self.name = name
        self.period = period
        self.offset = offset
        self.drift = drift
        self.jitter = jitter
        self.rng = rng
        self.edges_delivered = 0
        self._subscriber: Optional[Callable[[int], None]] = None
        self._stopped = False
        self._started = False

    @property
    def effective_period(self) -> float:
        """Nominal period adjusted for drift (jitter excluded)."""
        return self.period * (1.0 + self.drift)

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register the edge handler; called as ``callback(edge_index)``.

        A domain drives exactly one subscriber — that is how the hardware
        works (one clock input per INC) and it keeps edge ordering simple.
        """
        if self._subscriber is not None:
            raise ConfigurationError(f"clock {self.name!r} already has a subscriber")
        self._subscriber = callback

    def start(self) -> None:
        """Begin delivering edges.  Requires a subscriber."""
        if self._subscriber is None:
            raise ConfigurationError(f"clock {self.name!r} started without subscriber")
        if self._started:
            raise ConfigurationError(f"clock {self.name!r} started twice")
        self._started = True
        self.sim.schedule(self.offset + self._next_interval(first=True),
                          self._edge, label=f"{self.name}.edge")

    def stop(self) -> None:
        """Stop delivering edges after any already-scheduled edge."""
        self._stopped = True

    def _next_interval(self, first: bool = False) -> float:
        base = self.effective_period
        if self.jitter > 0 and self.rng is not None:
            base += self.rng.uniform(-self.jitter, self.jitter)
        # Guard against pathological jitter draws; time must advance.
        return max(base, 1e-9)

    def _edge(self) -> None:
        if self._stopped:
            return
        index = self.edges_delivered
        self.edges_delivered += 1
        assert self._subscriber is not None
        self._subscriber(index)
        if not self._stopped:
            self.sim.schedule(self._next_interval(), self._edge,
                              label=f"{self.name}.edge")


def skewed_domains(
    sim: Simulator,
    count: int,
    period: float,
    rng: RandomStream,
    max_drift: float = 0.05,
    max_jitter_fraction: float = 0.1,
    max_offset_fraction: float = 1.0,
) -> list[ClockDomain]:
    """``count`` independent domains with random phase, drift and jitter.

    This is the clocking model for the asynchronous-RMB experiments: every
    INC's clock differs in phase, speed and edge jitter, exactly the regime
    where the odd/even handshake must still bound cycle skew (Lemma 1).
    """
    domains = []
    for index in range(count):
        domains.append(
            ClockDomain(
                sim,
                period,
                offset=rng.uniform(0.0, period * max_offset_fraction),
                drift=rng.uniform(-max_drift, max_drift),
                jitter=period * max_jitter_fraction,
                rng=rng,
                name=f"clk{index}",
            )
        )
    return domains
