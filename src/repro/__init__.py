"""repro — a full reproduction of "RMB: A Reconfigurable Multiple Bus
Network" (ElGindy, Schröder, Spray, Somani, Schmeck — HPCA 1996).

The package provides:

* :mod:`repro.core` — the RMB itself: ring of INCs, k-lane reconfigurable
  bus, wormhole-style circuit setup, and the systolic compaction protocol
  with odd/even cycle handshaking.
* :mod:`repro.sim` — the discrete-event substrate (kernel, clock domains,
  RNG streams, probes).
* :mod:`repro.networks` — comparison networks: hypercube (e-cube), EHC,
  GFC, fat-tree, 2-D mesh, conventional arbitrated multiple bus, crossbar.
* :mod:`repro.traffic` — permutations, k-permutations and stochastic
  workloads.
* :mod:`repro.analysis` — Section 3.2 cost models, bisection bandwidth,
  offline-optimal scheduling and competitiveness, the tick-exact latency
  model, the experiment registry, table rendering.
* :mod:`repro.hier` — multi-ring networks on one :class:`RingFabric`:
  the two-ring variant, local rings bridged by a global ring, and 2-D /
  n-D lattices of RMB rings (the paper's future-work direction for
  grid-connected computers).
* :mod:`repro.apps` — application workloads: HPC collectives, real-time
  stream sessions with deadlines, access-fairness metrics.

A command-line interface is available as ``python -m repro`` (run, race,
cost, trace).

Quickstart::

    from repro import RMBConfig, RMBRing, Message

    ring = RMBRing(RMBConfig(nodes=16, lanes=4), probe_period=8.0)
    ring.submit(Message(message_id=0, source=0, destination=9, data_flits=32))
    ring.drain()
    print(ring.stats().summary())
"""

from repro.core import (
    Message,
    MessageRecord,
    RMBConfig,
    RMBRing,
    RunStats,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from repro.hier import TwoRingRMB

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "InvariantViolation",
    "Message",
    "MessageRecord",
    "ProtocolError",
    "RMBConfig",
    "RMBRing",
    "ReproError",
    "RoutingError",
    "RunStats",
    "SimulationError",
    "TopologyError",
    "TwoRingRMB",
    "WorkloadError",
    "__version__",
]
