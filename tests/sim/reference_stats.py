"""One observation at a time: the tested reference for the block folds.

:class:`EagerWelford` and :func:`histogram_add` are ``WelfordAccumulator.add``
and ``Histogram.add`` as they were before ``add_many`` — every update goes
through the object's attributes, nothing is carried in locals.  The
production ``add_many`` must leave bit-identical state
(``tests/sim/test_stats.py``, ``tests/metrics/test_collector.py``).
"""

import math

WELFORD_FIELDS = ("count", "_mean", "_m2", "minimum", "maximum", "total")


class EagerWelford:
    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value):
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self):
        return self._mean if self.count else 0.0


def histogram_add(histogram, value):
    """Record ``value`` in a :class:`repro.sim.stats.Histogram`, field by field."""
    histogram.count += 1
    if value < histogram.min_value:
        histogram.min_value = value
    if value > histogram.max_value:
        histogram.max_value = value
    if value < histogram.low:
        histogram.underflow += 1
        return
    if value >= histogram.high:
        histogram.overflow += 1
        return
    index = int((value - histogram.low) / histogram._width)
    if index >= histogram.bins:
        index = histogram.bins - 1
    histogram._counts[index] += 1
