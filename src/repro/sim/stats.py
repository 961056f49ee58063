"""Online statistics used across the simulation and controller layers.

Everything here is O(1) per observation (except percentile queries on the
histogram, which are O(bins)) so metric collection never dominates run time.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Tuple


def sequential_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right from ``0.0`` with plain ``+``.

    The stand-in for builtin ``sum`` wherever a float total feeds a
    decision or a reported result: ``sum`` is Neumaier-compensated on
    Python >= 3.12, so the same values total differently per interpreter
    (``[1e16, 1.0, -1e16, 1.0]`` gives ``1.0`` here, ``2.0`` compensated).
    """
    total = 0.0
    for value in values:
        total += value
    return total


class WelfordAccumulator:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.add_many((value,))

    def add_many(self, values: Iterable[float]) -> None:
        """Fold observations in order (the state is carried in locals)."""
        count, total, mean, m2 = self.count, self.total, self._mean, self._m2
        minimum, maximum = self.minimum, self.maximum
        for value in values:
            count += 1
            total += value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count, self.total, self._mean, self._m2 = count, total, mean, m2
        self.minimum, self.maximum = minimum, maximum

    @property
    def mean(self) -> float:
        """Sample mean; 0.0 when empty (convenient for reporting)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
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
        total_count = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total_count
        self._mean += delta * other.count / total_count
        self.count = total_count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WelfordAccumulator(n={}, mean={:.6f}, sd={:.6f})".format(
            self.count, self.mean, self.stddev
        )


class SlidingWindow:
    """Fixed-capacity window of (time, value) samples with O(1) mean.

    Used by the Monitor for "average response time over the last sampling
    window" style measurements.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("SlidingWindow capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[Tuple[float, float]] = deque()
        self._sum = 0.0

    def add(self, time: float, value: float) -> None:
        """Append a sample, evicting the oldest if at capacity."""
        self._items.append((time, value))
        self._sum += value
        if len(self._items) > self.capacity:
            _, old = self._items.popleft()
            self._sum -= old

    def evict_older_than(self, cutoff: float) -> None:
        """Drop samples whose timestamp precedes ``cutoff``."""
        while self._items and self._items[0][0] < cutoff:
            _, old = self._items.popleft()
            self._sum -= old

    @property
    def mean(self) -> float:
        """Mean of retained sample values; 0.0 when empty."""
        if not self._items:
            return 0.0
        return self._sum / len(self._items)

    def values(self) -> List[float]:
        """Retained sample values, oldest first."""
        return [v for _, v in self._items]

    def __len__(self) -> int:
        return len(self._items)


class Histogram:
    """Fixed-bin histogram over [low, high) with overflow/underflow bins.

    Percentile queries interpolate linearly inside the selected bin, which is
    plenty for latency-distribution reporting.  The true observed minimum
    and maximum are tracked exactly, so ``percentile(0)`` / ``percentile(100)``
    return the real data extremes even when mass sits in the underflow or
    overflow bins, and percentiles landing in those open-ended bins
    interpolate against the tracked extreme instead of being clamped to the
    bin edge.
    """

    def __init__(self, low: float, high: float, bins: int = 64) -> None:
        if high <= low:
            raise ValueError("Histogram needs high > low")
        if bins < 1:
            raise ValueError("Histogram needs >= 1 bin")
        self.low = low
        self.high = high
        self.bins = bins
        self._width = (high - low) / bins
        self._counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.min_value = math.inf
        self.max_value = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        self.add_many((value,))

    def add_many(self, values: Iterable[float]) -> None:
        """Record each of ``values``."""
        low, high, width, counts = self.low, self.high, self._width, self._counts
        count, minimum, maximum, last = self.count, self.min_value, self.max_value, self.bins - 1
        for value in values:
            count += 1
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
            if value < low:
                self.underflow += 1
            elif value >= high:
                self.overflow += 1
            else:
                # min() guards the upper edge against float rounding.
                counts[min(int((value - low) / width), last)] += 1
        self.count, self.min_value, self.max_value = count, minimum, maximum

    def percentile(self, q: float) -> float:
        """Approximate the q-th percentile (q in [0, 100]).

        ``percentile(0)`` and ``percentile(100)`` are exact: the smallest
        and largest observation ever recorded.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.min_value
        if q == 100:
            return self.max_value
        target = self.count * q / 100.0
        cumulative = float(self.underflow)
        if cumulative >= target:
            # Inside the underflow mass: interpolate over [min, low).
            fraction = target / self.underflow
            return self.min_value + fraction * (self.low - self.min_value)
        for index, bucket in enumerate(self._counts):
            if cumulative + bucket >= target and bucket > 0:
                fraction = (target - cumulative) / bucket
                return self.low + (index + fraction) * self._width
            cumulative += bucket
        if self.overflow:
            # Inside the overflow mass: interpolate over [high, max].
            fraction = (target - cumulative) / self.overflow
            return self.high + fraction * (self.max_value - self.high)
        return self.max_value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (parallel merge).

        The counterpart of :meth:`WelfordAccumulator.merge` for percentile
        reporting: per-shard response-time histograms merge into one
        cross-shard distribution without re-observing any sample.  Both
        histograms must share the same ``[low, high)`` range and bin
        count; bins, underflow and overflow sum, and the exact extremes
        combine as min/max, so ``percentile`` on the merged histogram is
        identical to a histogram fed the concatenated observations.
        """
        if (other.low, other.high, other.bins) != (self.low, self.high, self.bins):
            raise ValueError(
                "cannot merge Histogram([{}, {}), bins={}) into "
                "Histogram([{}, {}), bins={})".format(
                    other.low, other.high, other.bins,
                    self.low, self.high, self.bins,
                )
            )
        for index in range(self.bins):
            self._counts[index] += other._counts[index]
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        if other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def counts(self) -> List[int]:
        """Per-bin counts (excludes under/overflow)."""
        return list(self._counts)

    def to_dict(self) -> dict:
        """Plain-data state (JSON/pickle friendly); see :meth:`from_dict`."""
        return {
            "low": self.low,
            "high": self.high,
            "bins": self.bins,
            "counts": list(self._counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "min_value": self.min_value if self.count else None,
            "max_value": self.max_value if self.count else None,
        }

    @staticmethod
    def from_dict(state: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        histogram = Histogram(
            float(state["low"]), float(state["high"]), int(state["bins"])
        )
        counts = list(state["counts"])
        if len(counts) != histogram.bins:
            raise ValueError(
                "histogram state has {} bins, header says {}".format(
                    len(counts), histogram.bins
                )
            )
        histogram._counts = [int(c) for c in counts]
        histogram.underflow = int(state["underflow"])
        histogram.overflow = int(state["overflow"])
        histogram.count = int(state["count"])
        if state.get("min_value") is not None:
            histogram.min_value = float(state["min_value"])
        if state.get("max_value") is not None:
            histogram.max_value = float(state["max_value"])
        return histogram
