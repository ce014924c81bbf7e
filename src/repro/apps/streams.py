"""Real-time stream sessions — the paper's multimedia motivation, made
measurable.

Section 1: "In high-performance computers, real-time and distributed
multimedia systems, the interconnection network plays a crucial role.
It can even be argued that the network's ability to deliver data within
a specified/acceptable time delay is more important than the ability of
the communicating processors to manipulate them."

A :class:`StreamSession` is a periodic flow (think audio/video frames)
between two nodes with a delivery deadline per frame.  The driver replays
a set of sessions onto a ring and reports per-session deadline-miss
rates and jitter — the metric the quoted sentence asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.errors import WorkloadError
from repro.sim.monitor import Tally


@dataclass(frozen=True)
class StreamSession:
    """One periodic real-time flow.

    Attributes:
        session_id: label.
        source / destination: endpoints.
        period: ticks between frames.
        frame_flits: data flits per frame.
        deadline: max acceptable creation-to-delivery latency per frame.
        frames: number of frames to send.
        start: first frame's departure time.
    """

    session_id: int
    source: int
    destination: int
    period: float
    frame_flits: int
    deadline: float
    frames: int
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0 or self.deadline <= 0 or self.frames < 1:
            raise WorkloadError(
                f"session {self.session_id}: period, deadline and frames "
                "must be positive"
            )


@dataclass
class SessionReport:
    """Deadline statistics for one session after a run."""

    session: StreamSession
    delivered: int = 0
    missed: int = 0
    latency: Tally = field(default_factory=lambda: Tally("latency"))
    worst_latency: float = 0.0

    @property
    def miss_rate(self) -> float:
        total = self.delivered + self.missed
        return self.missed / total if total else 0.0

    def jitter(self) -> float:
        """Latency standard deviation — delivery-time variability."""
        return self.latency.stddev

    def as_dict(self) -> dict[str, object]:
        return {
            "session": self.session.session_id,
            "route": f"{self.session.source}->{self.session.destination}",
            "frames": self.session.frames,
            "deadline": self.session.deadline,
            "mean_latency": round(self.latency.mean, 1),
            "worst_latency": self.worst_latency,
            "jitter": round(self.jitter(), 1),
            "miss_rate": round(self.miss_rate, 3),
        }


class StreamDriver:
    """Replays stream sessions onto a ring and scores deadlines."""

    def __init__(self, config: RMBConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed

    def run(self, sessions: Sequence[StreamSession],
            max_ticks: float = 2_000_000.0) -> list[SessionReport]:
        """Run every session to completion; return one report each."""
        ring = RMBRing(self.config, seed=self.seed)
        frame_owner: dict[int, StreamSession] = {}
        next_id = 0
        for session in sessions:
            for frame in range(session.frames):
                departure = session.start + frame * session.period
                message = Message(
                    message_id=next_id,
                    source=session.source,
                    destination=session.destination,
                    data_flits=session.frame_flits,
                    created_at=departure,
                )
                frame_owner[next_id] = session
                next_id += 1
                ring.sim.schedule_at(
                    departure, self._submitter(ring, message),
                    label=f"frame{message.message_id}",
                )
        horizon = max(
            session.start + session.frames * session.period
            for session in sessions
        )
        ring.run(horizon)
        ring.drain(max_ticks=max_ticks)
        return self._score(ring, sessions, frame_owner)

    @staticmethod
    def _submitter(ring: RMBRing, message: Message):
        def submit() -> None:
            ring.submit(message)

        return submit

    @staticmethod
    def _score(ring: RMBRing, sessions: Sequence[StreamSession],
               frame_owner: dict[int, StreamSession]) -> list[SessionReport]:
        reports = {session.session_id: SessionReport(session)
                   for session in sessions}
        for message_id, record in ring.routing.records.items():
            session = frame_owner[message_id]
            report = reports[session.session_id]
            latency = record.latency()
            if latency is None:
                report.missed += 1
                continue
            report.latency.add(latency)
            report.worst_latency = max(report.worst_latency, latency)
            if latency > session.deadline:
                report.missed += 1
            else:
                report.delivered += 1
        return [reports[session.session_id] for session in sessions]


def evenly_spread_sessions(
    nodes: int,
    count: int,
    span: int,
    period: float,
    frame_flits: int,
    deadline: float,
    frames: int,
) -> list[StreamSession]:
    """``count`` identical sessions with sources spread around the ring."""
    if count < 1 or count > nodes:
        raise WorkloadError(f"count must be in 1..{nodes}, got {count}")
    stride = nodes // count
    sessions = []
    for index in range(count):
        source = index * stride
        sessions.append(StreamSession(
            session_id=index,
            source=source,
            destination=(source + span) % nodes,
            period=period,
            frame_flits=frame_flits,
            deadline=deadline,
            frames=frames,
            # Stagger starts so frames do not beat against each other.
            start=index * (period / count),
        ))
    return sessions
