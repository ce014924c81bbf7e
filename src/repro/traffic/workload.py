"""Workload drivers: replay arrival schedules onto networks.

Batch networks (:class:`~repro.networks.base.ComparisonNetwork`) consume a
message list directly; the RMB ring is a live simulation, so schedules are
replayed by scheduling ``submit`` calls at each arrival instant.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.flits import Message
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
