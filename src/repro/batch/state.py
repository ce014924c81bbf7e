"""Struct-of-arrays state store for the batch backend.

The event backend keeps one Python object per message, per bus and per
grid cell.  The batch backend flips the layout: every hot field lives in
one parallel numpy array indexed by *message row* (submission order), and
the segment grid is a pair of dense ``(nodes, lanes)`` integer matrices.
:class:`BatchState` owns those arrays plus the structural counters, and
reproduces :meth:`repro.core.segments.SegmentGrid.state_signature`
bit-for-bit so differential tests can compare final grids across
backends.

Cold per-message bookkeeping (timestamps, refusal counters, lanes
visited) stays on the existing :class:`repro.core.flits.MessageRecord`
objects — they are written a handful of times per message and feed
:meth:`repro.core.stats.RunStats.from_records` unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.flits import Message
from repro.core.status import PortHealth
from repro.errors import ProtocolError

#: Grid health codes, in enum-declaration order (OK must be 0: the
#: vectorized usability masks test ``health == 0``).
HEALTHS: Tuple[PortHealth, ...] = tuple(PortHealth)
HEALTH_CODE = {health: index for index, health in enumerate(HEALTHS)}

H_OK: int = HEALTH_CODE[PortHealth.OK]

#: "Empty" sentinel in the occupancy / hop / released_from arrays.
FREE: int = -1


class BatchState:
    """All mutable simulation state as parallel arrays.

    One row per message, allocated up-front when the workload is loaded
    (the batch backend replays a *known* schedule; late submissions grow
    the arrays geometrically).  Grid occupancy is mirrored twice — by
    bus id (for signatures) and by message row (for O(1) lookups during
    compaction) — and the claim/release/move helpers maintain the same
    structural counters as :class:`~repro.core.segments.SegmentGrid`.
    """

    __slots__ = (
        "nodes", "lanes",
        "state", "src", "dst", "span", "data_flits", "total_flits",
        "sigpos", "data_sent", "stall", "hops", "hops_len",
        "released_from", "rx_held", "bus_id",
        "occ_bus", "occ_row", "health", "usable",
        "grid_epoch", "free_epoch", "col_epoch",
        "total_claims", "total_releases", "total_faults", "total_repairs",
        "occupied_count", "faulty_count",
        "tx_active", "rx_active",
        "messages",
    )

    def __init__(self, nodes: int, lanes: int, new_state: int) -> None:
        self.nodes = nodes
        self.lanes = lanes
        capacity = 0
        # Per-message rows (empty until messages are loaded).
        self.state = np.full(capacity, new_state, dtype=np.int16)
        self.src = np.zeros(capacity, dtype=np.int32)
        self.dst = np.zeros(capacity, dtype=np.int32)
        self.span = np.zeros(capacity, dtype=np.int32)
        self.data_flits = np.zeros(capacity, dtype=np.int32)
        self.total_flits = np.zeros(capacity, dtype=np.int32)
        self.sigpos = np.zeros(capacity, dtype=np.int32)
        self.data_sent = np.zeros(capacity, dtype=np.int32)
        self.stall = np.zeros(capacity, dtype=np.int32)
        self.hops = np.full((capacity, max(nodes, 1)), FREE, dtype=np.int16)
        self.hops_len = np.zeros(capacity, dtype=np.int32)
        self.released_from = np.full(capacity, FREE, dtype=np.int32)
        self.rx_held = np.zeros(capacity, dtype=bool)
        self.bus_id = np.full(capacity, FREE, dtype=np.int64)
        #: The Message object for each row (cold path: records/stats).
        self.messages: List[Message] = []
        # Grid mirror.
        self.occ_bus = np.full((nodes, lanes), FREE, dtype=np.int64)
        self.occ_row = np.full((nodes, lanes), FREE, dtype=np.int64)
        self.health = np.full((nodes, lanes), H_OK, dtype=np.int8)
        #: ``usable[seg, lane + 1]`` == "lane is OK *and* free", padded
        #: with an always-False lane on each side so candidate gathers
        #: at ``entry - 1`` / ``entry + 1`` need no bounds masks.
        self.usable = np.zeros((nodes, lanes + 2), dtype=bool)
        self.usable[:, 1:-1] = True
        #: Monotonic change counters: ``grid_epoch`` bumps on any
        #: occupancy change, ``free_epoch`` only when a cell *gains*
        #: usability — the engine's skip paths compare these.
        self.grid_epoch = 0
        self.free_epoch = 0
        #: Per-column usability-gain counter: a header stalled on column
        #: ``s`` can only become movable after ``col_epoch[s]`` changes.
        self.col_epoch = np.zeros(nodes, dtype=np.int64)
        self.total_claims = 0
        self.total_releases = 0
        self.total_faults = 0
        self.total_repairs = 0
        self.occupied_count = 0
        self.faulty_count = 0
        # Endpoint port budgets.
        self.tx_active = np.zeros(nodes, dtype=np.int32)
        self.rx_active = np.zeros(nodes, dtype=np.int32)

    # -- message rows -----------------------------------------------------

    def add_message(self, message: Message, new_state: int) -> int:
        """Append one message row, growing the arrays if needed."""
        row = len(self.messages)
        if row >= len(self.state):
            self._grow(new_state)
        self.messages.append(message)
        self.state[row] = new_state
        self.src[row] = message.source
        self.dst[row] = message.destination
        self.span[row] = message.span(self.nodes)
        self.data_flits[row] = message.data_flits
        self.total_flits[row] = message.total_flits
        return row

    def _grow(self, new_state: int) -> None:
        old = len(self.state)
        new = max(16, old * 2)
        extra = new - old

        def widen(array: np.ndarray, fill: int) -> np.ndarray:
            pad_shape = (extra,) + array.shape[1:]
            pad = np.full(pad_shape, fill, dtype=array.dtype)
            return np.concatenate([array, pad])

        self.state = widen(self.state, new_state)
        self.src = widen(self.src, 0)
        self.dst = widen(self.dst, 0)
        self.span = widen(self.span, 0)
        self.data_flits = widen(self.data_flits, 0)
        self.total_flits = widen(self.total_flits, 0)
        self.sigpos = widen(self.sigpos, 0)
        self.data_sent = widen(self.data_sent, 0)
        self.stall = widen(self.stall, 0)
        self.hops = widen(self.hops, FREE)
        self.hops_len = widen(self.hops_len, 0)
        self.released_from = widen(self.released_from, FREE)
        self.rx_held = widen(self.rx_held, 0)
        self.bus_id = widen(self.bus_id, FREE)

    # -- grid operations (counter semantics match SegmentGrid) ------------

    def claim(self, segment: int, lane: int, row: int, bus: int) -> None:
        if self.occ_bus.item(segment, lane) != FREE:  # pragma: no cover
            raise ProtocolError(
                f"segment {segment} lane {lane} already claimed by bus "
                f"{self.occ_bus[segment, lane]}"
            )
        if self.health.item(segment, lane) != H_OK:  # pragma: no cover
            raise ProtocolError(
                f"segment {segment} lane {lane} is not OK; bus {bus} "
                f"cannot claim it"
            )
        self.occ_bus[segment, lane] = bus
        self.occ_row[segment, lane] = row
        self.usable[segment, lane + 1] = False
        self.total_claims += 1
        self.occupied_count += 1
        self.grid_epoch += 1

    def release(self, segment: int, lane: int, bus: int) -> None:
        if self.occ_bus.item(segment, lane) != bus:  # pragma: no cover
            raise ProtocolError(
                f"segment {segment} lane {lane} not held by bus {bus}"
            )
        self.occ_bus[segment, lane] = FREE
        self.occ_row[segment, lane] = FREE
        self.usable[segment, lane + 1] = \
            self.health.item(segment, lane) == H_OK
        self.total_releases += 1
        self.occupied_count -= 1
        self.grid_epoch += 1
        self.free_epoch += 1
        self.col_epoch[segment] += 1

    def move_down(self, segment: int, lane: int) -> None:
        """Shift one occupant a lane down (no counters, like the grid)."""
        self.occ_bus[segment, lane - 1] = self.occ_bus.item(segment, lane)
        self.occ_row[segment, lane - 1] = self.occ_row.item(segment, lane)
        self.occ_bus[segment, lane] = FREE
        self.occ_row[segment, lane] = FREE
        self.usable[segment, lane] = False
        self.usable[segment, lane + 1] = \
            self.health.item(segment, lane) == H_OK
        self.grid_epoch += 1
        self.free_epoch += 1
        self.col_epoch[segment] += 1

    def set_health(self, segment: int, lane: int, health: PortHealth) -> None:
        segment %= self.nodes
        previous = HEALTHS[int(self.health[segment, lane])]
        if previous is health:
            return
        if previous is PortHealth.OK:
            self.faulty_count += 1
            self.total_faults += 1
        elif health is PortHealth.OK:
            self.faulty_count -= 1
            self.total_repairs += 1
        self.health[segment, lane] = HEALTH_CODE[health]
        self.usable[segment, lane + 1] = (
            health is PortHealth.OK and self.occ_bus[segment, lane] == FREE)
        self.grid_epoch += 1
        self.free_epoch += 1
        self.col_epoch[segment] += 1

    def is_usable(self, segment: int, lane: int) -> bool:
        return bool(self.usable[segment, lane + 1])

    # -- digests ----------------------------------------------------------

    def grid_signature(self) -> tuple:
        """Bit-identical twin of ``SegmentGrid.state_signature()``."""
        occupant = tuple(
            tuple(None if cell == FREE else int(cell) for cell in row)
            for row in self.occ_bus
        )
        health = tuple(
            tuple(HEALTHS[int(cell)].value for cell in row)
            for row in self.health
        )
        return (
            self.nodes,
            self.lanes,
            occupant,
            health,
            self.total_claims,
            self.total_releases,
            self.total_faults,
            self.total_repairs,
        )

    def utilization(self) -> float:
        return self.occupied_count / float(self.nodes * self.lanes)

    def iter_occupied(self) -> "np.ndarray":
        """Occupied ``(segment, lane)`` cells, ascending — the same order
        as ``SegmentGrid.iter_occupied``'s row walk."""
        return np.argwhere(self.occ_bus != FREE)
