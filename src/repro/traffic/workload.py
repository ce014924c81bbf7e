"""Workload drivers: replay arrival schedules onto networks.

Batch networks (:class:`~repro.networks.base.ComparisonNetwork`) consume a
message list directly; the RMB ring is a live simulation, so schedules are
replayed by scheduling ``submit`` calls at each arrival instant.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, Union

from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.core.stats import RunStats
from repro.hier.fabric import RingFabric
from repro.traffic.arrivals import ArrivalSchedule
from repro.traffic.permutations import is_permutation
from repro.errors import WorkloadError


class _SubmitTarget(Protocol):
    """Anything a schedule can be replayed onto (ring or two-ring)."""

    def submit(self, message: Message) -> object: ...


def replay_on_ring(ring: RMBRing, schedule: ArrivalSchedule) -> None:
    """Arrange for every schedule entry to be submitted at its time.

    Call before running the simulation.  Entries at times earlier than the
    ring's current clock are rejected.
    """
    now = ring.sim.now
    for time, message in schedule:
        if time < now:
            raise WorkloadError(
                f"schedule entry at t={time} is in the ring's past ({now})"
            )
        ring.sim.schedule_at(time, _submitter(ring, message),
                             label=f"arrive.msg{message.message_id}")


def replay_on_fabric(network: RingFabric, schedule: ArrivalSchedule) -> None:
    """Schedule-replay onto any ring fabric (two-ring, hierarchy, ...)."""
    now = network.sim.now
    for time, message in schedule:
        if time < now:
            raise WorkloadError(
                f"schedule entry at t={time} is in the network's past ({now})"
            )
        network.sim.schedule_at(time, _submitter(network, message),
                                label=f"arrive.msg{message.message_id}")


class _Submitter:
    """Picklable deferred ``target.submit(message)`` call.

    Workload arrivals sit in the kernel queue for the whole run; a class
    instance (rather than a closure) keeps the queue serialisable for
    checkpoint/restore.
    """

    def __init__(self, target: _SubmitTarget, message: Message) -> None:
        self._target = target
        self._message = message

    def __call__(self) -> None:
        self._target.submit(self._message)


def _submitter(target: _SubmitTarget, message: Message) -> _Submitter:
    return _Submitter(target, message)


def run_load_point(
    config_builder: Callable[[], Union[RMBRing, RingFabric]],
    schedule: ArrivalSchedule,
    settle_ticks: float = 0.0,
    max_ticks: float = 2_000_000.0,
) -> RunStats:
    """Build a fresh ring, replay a schedule, drain, return stats.

    Args:
        config_builder: zero-argument callable returning a new
            :class:`RMBRing` (or any :class:`RingFabric`, e.g.
            :class:`~repro.hier.TwoRingRMB`).
        schedule: the pre-generated workload.
        settle_ticks: extra simulated time after the last arrival before
            draining begins (lets queued work phase in naturally).
    """
    network = config_builder()
    if isinstance(network, RingFabric):
        replay_on_fabric(network, schedule)
    else:
        replay_on_ring(network, schedule)
    horizon = schedule.horizon() + settle_ticks
    network.run(horizon)
    network.drain(max_ticks=max_ticks)
    return network.stats()


def permutation_messages(perm: Sequence[int], data_flits: int,
                         start_id: int = 0) -> list[Message]:
    """Messages realising a permutation (fixed points skipped).

    Raises:
        WorkloadError: if ``perm`` is not a permutation of its indices.
    """
    if not is_permutation(list(perm)):
        raise WorkloadError("input is not a permutation")
    messages = []
    next_id = start_id
    for source, destination in enumerate(perm):
        if source == destination:
            continue
        messages.append(Message(message_id=next_id, source=source,
                                destination=destination,
                                data_flits=data_flits))
        next_id += 1
    return messages
