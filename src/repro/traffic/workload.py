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
from repro.sim import Simulator
from repro.traffic.arrivals import ArrivalSchedule
from repro.traffic.permutations import is_permutation
from repro.errors import WorkloadError


class _ReplayTarget(Protocol):
    """Anything a schedule can be replayed onto: a ring or a fabric."""

    @property
    def sim(self) -> Simulator: ...

    def submit(self, message: Message) -> object: ...


def replay_on_ring(network: _ReplayTarget, schedule: ArrivalSchedule) -> None:
    """Arrange for every schedule entry to be submitted at its time.

    ``network`` is anything with a ``sim`` and a ``submit``: an
    :class:`RMBRing` or any :class:`RingFabric`.  Call before running
    the simulation.  Entries at times earlier than the network's current
    clock are rejected.
    """
    now = network.sim.now
    for time, message in schedule:
        if time < now:
            raise WorkloadError(
                f"schedule entry at t={time} is in the network's past ({now})"
            )
        network.sim.schedule_at(time, _Submitter(network, message),
                                label=f"arrive.msg{message.message_id}")


#: The same replay under the name fabric callers use.
replay_on_fabric = replay_on_ring


class _Submitter:
    """Picklable deferred ``target.submit(message)`` call.

    Workload arrivals sit in the kernel queue for the whole run; a class
    instance (rather than a closure) keeps the queue serialisable for
    checkpoint/restore.
    """

    def __init__(self, target: _ReplayTarget, message: Message) -> None:
        self._target = target
        self._message = message

    def __call__(self) -> None:
        self._target.submit(self._message)


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
