"""Configuration for an RMB network instance."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Every retry/timeout knob of one ring, in one validated place.

    A refused request (Nack) makes its source retry; this policy is the
    only home of how: the backoff, the give-up rules and the header
    timeout.  :class:`RMBConfig` carries
    one as ``config.retry``, so a whole retry regime is named, validated
    and swapped as a unit.

    Attributes:
        delay: ticks a source waits after the first refusal before
            re-requesting (the backoff floor).
        backoff: multiplier applied per extra refusal (1.0 = constant
            retry interval).
        jitter: fraction of the retry delay drawn uniformly at random
            and added, to break symmetric retry livelock.
        max_retries: give up after this many refusals (``None`` = never).
        header_timeout: consecutive stalled ticks after which an
            extending header gives up, releases its partial virtual bus
            (as if Nacked) and retries.  ``None`` disables the timeout.
            The paper does not specify behaviour for mutually-blocking
            partial circuits (possible when message spans cover the ring
            and all lanes fill); the timeout restores liveness without
            changing behaviour in the uncongested regimes the paper
            analyses (design decision D8).
        node_budget: cap on the *total* retries the messages of one
            source node may accumulate in a run.  Once a node has spent
            its budget, further refusals abandon the message instead of
            re-arming a timer — the per-node fuse that keeps a dead
            destination from monopolising a source's injection slots
            during fault storms.  ``None`` (default) disables the fuse.
    """

    delay: float = 16.0
    backoff: float = 2.0
    jitter: float = 0.5
    max_retries: Optional[int] = None
    header_timeout: Optional[float] = 128.0
    node_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ConfigurationError("retry.delay must be positive")
        if self.backoff < 1.0:
            raise ConfigurationError("retry.backoff must be >= 1.0")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigurationError(
                "retry.max_retries must be >= 0 or None")
        if self.header_timeout is not None and self.header_timeout <= 0:
            raise ConfigurationError(
                "retry.header_timeout must be positive or None")
        if self.jitter < 0:
            raise ConfigurationError("retry.jitter must be >= 0")
        if self.node_budget is not None and self.node_budget < 0:
            raise ConfigurationError(
                "retry.node_budget must be >= 0 or None")

    def with_overrides(self, **changes: Any) -> "RetryPolicy":
        """A copy with some fields replaced (validated again)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RMBConfig:
    """Design parameters of one RMB ring (paper Section 2).

    Attributes:
        nodes: number of processing nodes ``N`` on the ring.  Must be even:
            the odd/even cycle protocol marks INCs by position parity, which
            is consistent around a ring only for even ``N``.
        lanes: number of physical bus segments ``k`` between adjacent INCs.
            The paper calls this the design parameter chosen from system
            size, tolerable bus length, and target applications.
        cycle_period: nominal ticks per odd/even compaction cycle.  One
            tick is one flit (or ack signal) crossing one segment, so the
            cycle period is independent of routing, reflecting the paper's
            decoupling of routing and compaction synchronisation.
        synchronous: if True, all INCs share one global cycle counter (fast
            mode); if False, each INC runs the rules-1-to-5 handshake off an
            independent skewed clock.
        clock_drift: max per-INC relative frequency error in async mode.
        clock_jitter_fraction: per-edge jitter as a fraction of
            ``cycle_period`` in async mode.
        compaction_enabled: master switch, used by the ablation experiment
            (E17).  With compaction off, virtual buses stay on the lanes the
            header drew and the top lane is only released at teardown.
        extend_up: whether a stalled header may extend onto lane ``l+1``
            when lanes ``l-1`` and ``l`` ahead are busy.  The paper's INC
            crossbar permits it; keeping it on is required for Theorem 1's
            full-utilisation behaviour.
        tx_ports: concurrent outgoing messages a PE interface supports
            (paper Section 2.1: "it is possible for the interface to be
            enhanced to permit the PE to talk concurrently with multiple
            inputs and outputs").  All insertions still share the top
            lane, so extra ports pay serialised injection.
        rx_ports: concurrent incoming messages a PE interface supports.
        admission_limit: per-INC cap on *outstanding* requests — queued at
            the PE, in flight as a virtual bus, or waiting out a retry
            timer.  ``None`` (the default) admits everything, which under
            overload grows queues and latency without bound.  With a cap,
            a source whose outstanding count has reached the limit has new
            submissions shed or deferred per ``admission_policy``, so the
            network's internal load — and hence its latency — stays
            bounded (supervision design decision S2).
        admission_policy: ``"defer"`` holds over-limit submissions in a
            per-INC holding queue and admits them as the source's
            outstanding count drops; ``"shed"`` refuses them outright
            (the record is marked ``shed`` and counted in the run stats).
        check_level: how often the runtime invariant monitor executes.
            ``"full"`` (default) checks every compaction cycle — every
            reported number comes from a continuously validated run;
            ``"sampled"`` checks every 16th cycle, trading validation
            latency for speed on large rings; ``"off"`` disables the
            monitor entirely.  The checks are read-only, so all three
            levels produce bit-identical simulation results; only how
            quickly a protocol bug would be caught differs.
        compact_head_while_extending: whether compaction may move the
            *head* hop of a bus whose header is still travelling.  The
            paper is ambiguous; moving it maximises packing but drags a
            stalled header to the bottom of the lane stack, where packed
            columns ahead leave free lanes only near the top — outside the
            header's +/-1 reach — so it can stall until a teardown frees a
            low lane (recovered by ``retry.header_timeout``).  Keeping the
            head hop high (the default) preserves reachability and makes
            load-within-capacity circuit sets establish without retries
            (design decision D9; ablated in E17).
        retry: the :class:`RetryPolicy` — backoff, give-up rules and
            header timeout after a refusal.
    """

    nodes: int
    lanes: int
    cycle_period: float = 4.0
    synchronous: bool = True
    clock_drift: float = 0.03
    clock_jitter_fraction: float = 0.05
    compaction_enabled: bool = True
    extend_up: bool = True
    compact_head_while_extending: bool = False
    tx_ports: int = 1
    rx_ports: int = 1
    admission_limit: int | None = None
    admission_policy: str = "defer"
    check_level: str = "full"
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.nodes < 4:
            raise ConfigurationError(
                f"an RMB ring needs at least 4 nodes, got {self.nodes}"
            )
        if self.nodes % 2 != 0:
            raise ConfigurationError(
                f"the odd/even cycle protocol needs an even node count on a "
                f"ring, got {self.nodes}"
            )
        if self.lanes < 1:
            raise ConfigurationError(f"need at least 1 lane, got {self.lanes}")
        if self.cycle_period <= 0:
            raise ConfigurationError("cycle_period must be positive")
        if not 0.0 <= self.clock_drift < 0.5:
            raise ConfigurationError("clock_drift must be in [0, 0.5)")
        if not 0.0 <= self.clock_jitter_fraction < 0.5:
            raise ConfigurationError("clock_jitter_fraction must be in [0, 0.5)")
        if self.tx_ports < 1 or self.rx_ports < 1:
            raise ConfigurationError("tx_ports and rx_ports must be >= 1")
        if self.tx_ports > self.lanes:
            raise ConfigurationError(
                "tx_ports cannot exceed the lane count: all insertions "
                "share the single top-lane segment at the source INC"
            )
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ConfigurationError("admission_limit must be >= 1 or None")
        if self.admission_policy not in ("defer", "shed"):
            raise ConfigurationError(
                f"admission_policy must be 'defer' or 'shed', "
                f"got {self.admission_policy!r}"
            )
        if self.check_level not in ("full", "sampled", "off"):
            raise ConfigurationError(
                f"check_level must be 'full', 'sampled' or 'off', "
                f"got {self.check_level!r}"
            )

    @property
    def top_lane(self) -> int:
        """Index of the insertion lane, ``k - 1``."""
        return self.lanes - 1

    def header_reach(self, entry_lane: int) -> range:
        """Lanes of the next column a travelling header on ``entry_lane``
        could ever extend onto without a repair: straight, one down and
        (``extend_up``) one up — widened to every lower lane when
        compaction may drag the head hop down (D9 waived)."""
        low = max(entry_lane - 1, 0)
        if self.compact_head_while_extending:
            low = 0
        high = entry_lane
        if self.extend_up:
            high = min(entry_lane + 1, self.top_lane)
        return range(low, high + 1)

    def with_overrides(self, **changes: Any) -> "RMBConfig":
        """A copy with some fields replaced (validated again)."""
        return replace(self, **changes)
