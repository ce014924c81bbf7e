"""Measurement: time series, rate meters, and summary statistics.

These are deliberately simple, dependency-free accumulators; every
benchmark builds its reported rows from them.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.kernel import Simulator, every


class Tally:
    """Streaming summary of a sample set: count / mean / variance / extremes.

    Uses Welford's algorithm so long benchmark runs stay numerically stable.
    """

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one (parallel-run aggregation)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }


class TimeSeries:
    """A sampled ``(time, value)`` series with integral statistics."""

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def time_average(self) -> float:
        """Time-weighted average, treating values as step functions."""
        if len(self.times) < 2:
            return self.values[0] if self.values else 0.0
        area = 0.0
        for index in range(len(self.times) - 1):
            span = self.times[index + 1] - self.times[index]
            area += self.values[index] * span
        duration = self.times[-1] - self.times[0]
        return area / duration if duration > 0 else self.values[-1]

    def peak(self) -> float:
        return max(self.values) if self.values else 0.0


class RateMeter:
    """Samples the *rate of change* of a monotone counter into a series.

    Every ``period`` ticks the meter reads ``observe_total()`` (e.g.
    cumulative flits delivered) and records the per-tick rate over the
    window just ended.  The degraded-mode experiments use this to watch
    residual throughput through fault and repair events.
    """

    def __init__(self, sim: Simulator, period: float,
                 observe_total: Callable[[], float],
                 name: str = "rate") -> None:
        self.series = TimeSeries(name=name)
        self._sim = sim
        self._observe = observe_total
        self._period = period
        self._last = observe_total()
        self._stop = every(sim, period, self._sample,
                           label=f"{name}.sample")

    def _sample(self) -> None:
        current = self._observe()
        self.series.record(self._sim.now, (current - self._last) / self._period)
        self._last = current

    def stop(self) -> None:
        self._stop.stop()

    def minimum(self) -> float:
        """Lowest rate observed (0 when nothing was sampled)."""
        return min(self.series.values) if self.series.values else 0.0


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight
