"""The metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are identified by a metric *name* plus a frozen label set —
asking the registry twice for the same (name, labels) pair returns the
same instrument, so engines resolve their instruments once at
construction and hot paths touch plain attributes.

Two acquisition styles coexist, mirroring Prometheus practice:

* **push** — engines increment counters / observe histograms at
  instrumentation points (guarded by the owner's one-branch obs flag);
* **pull** — *collectors* registered with
  :meth:`MetricsRegistry.register_collector` run only at
  :meth:`MetricsRegistry.collect` time (export / report) and scrape
  engine-owned state into gauges.  Pull metrics cost nothing during the
  run, so even a run at level ``"off"`` exports its final counts.

Collectors are instances of plain classes, never closures, so a ring
carrying an armed registry still checkpoints (the same pickling rule as
:class:`~repro.sim.kernel.SimClock`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional, Union

from repro.errors import ConfigurationError

#: Default histogram layout for tick-valued quantities (setup latency,
#: stall counts, ...): powers of two from 1 to 4096 ticks.  Exponential
#: buckets track the exponential retry backoff, so each extra refusal
#: lands a sample roughly one bucket higher.
DEFAULT_TICK_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0, 4096.0,
)

LabelItems = tuple[tuple[str, str], ...]


def _freeze_labels(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A named monotone counter (optionally labelled)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A named instantaneous value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """A fixed-bucket histogram with interpolated quantile estimates.

    Buckets are defined by ascending finite upper bounds; one implicit
    overflow bucket catches everything beyond the last bound (exported
    as ``le="+Inf"`` in Prometheus terms).  The layout is fixed at
    construction, which is what makes :meth:`merge` exact: merging two
    histograms with the same bounds is element-wise addition, so the
    merge is associative and commutative and conserves the total count
    (Hypothesis-tested in ``tests/obs/test_metrics_properties.py``).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Iterable[float] = DEFAULT_TICK_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} bucket bounds must strictly ascend, "
                f"got {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # last slot = overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample (bucket rule: ``value <= bound``)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (parallel aggregation).

        Raises:
            ConfigurationError: when the bucket layouts differ — merging
                mismatched layouts cannot be exact, so it is refused
                rather than approximated.
        """
        if other.bounds != self.bounds:
            raise ConfigurationError(
                f"cannot merge histogram {other.name} with bounds "
                f"{other.bounds} into {self.name} with bounds {self.bounds}")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (monotone by construction)."""
        running = 0
        out = []
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def quantile(self, fraction: float) -> float:
        """Estimated ``fraction`` quantile by linear interpolation.

        Within a bucket the samples are assumed uniform between the
        previous bound (0 for the first bucket) and the bucket's bound;
        overflow samples are clamped to the largest finite bound.  The
        estimate is nondecreasing in ``fraction`` (monotone CDF).
        Returns 0 for an empty histogram.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        running = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if running + count >= target and count > 0:
                weight = (target - running) / count
                return lower + weight * (bound - lower)
            running += count
            lower = bound
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}{dict(self.labels)} "
                f"count={self.count} sum={self.sum})")


Instrument = Union[Counter, Gauge, Histogram]

#: Prometheus metric-type tags, keyed by instrument class.
_TYPE_OF = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """Owns every instrument of one run and hands them out idempotently."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelItems], Instrument] = {}
        self._help: dict[str, str] = {}
        self._types: dict[str, type] = {}
        self._collectors: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Instrument acquisition
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter for (name, labels), created on first request."""
        return self._acquire(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge for (name, labels), created on first request."""
        return self._acquire(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_TICK_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram for (name, labels), created on first request.

        The bucket layout is fixed by the *first* acquisition; later
        requests must not contradict it.
        """
        instrument = self._acquire(Histogram, name, help, labels,
                                   buckets=buckets)
        if instrument.bounds != tuple(float(b) for b in buckets):
            raise ConfigurationError(
                f"histogram {name} already registered with bounds "
                f"{instrument.bounds}")
        return instrument

    def _acquire(self, cls: type, name: str, help: str,
                 labels: dict[str, Any], **extra: Any) -> Any:
        registered = self._types.get(name)
        if registered is not None and registered is not cls:
            raise ConfigurationError(
                f"metric {name} already registered as "
                f"{_TYPE_OF[registered]}, cannot re-register as "
                f"{_TYPE_OF[cls]}")
        key = (name, _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **extra)
            self._instruments[key] = instrument
            self._types[name] = cls
            if help and name not in self._help:
                self._help[name] = help
        return instrument

    # ------------------------------------------------------------------
    # Pull-side collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Add a zero-argument callable run at every :meth:`collect`.

        Collectors scrape engine state into gauges at export time; they
        must be picklable instances (no closures) so checkpointed rings
        restore with their registry intact.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector (refreshing pull gauges)."""
        for collector in self._collectors:
            collector()

    # ------------------------------------------------------------------
    # Introspection (exporters, tests, benchmarks)
    # ------------------------------------------------------------------
    def instruments(self) -> list[Instrument]:
        """Every instrument, sorted by (name, labels) for stable export."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def type_of(self, name: str) -> str:
        cls = self._types.get(name)
        return _TYPE_OF[cls] if cls is not None else ""

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        """The instrument for (name, labels) if it exists, else ``None``."""
        return self._instruments.get((name, _freeze_labels(labels)))

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        instrument = self.get(name, **labels)
        if instrument is None or isinstance(instrument, Histogram):
            return default
        return instrument.value

    def __len__(self) -> int:
        return len(self._instruments)
