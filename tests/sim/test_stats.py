"""Tests for the online statistics helpers."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    Histogram,
    SlidingWindow,
    WelfordAccumulator,
    sequential_sum,
)
from tests.sim.reference_stats import WELFORD_FIELDS, EagerWelford, histogram_add


def _wide_window():
    rng = random.Random(20261002)
    return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(10_000)]


class TestSequentialSum:
    """Conformance against the written-out loop, on inputs where builtin
    ``sum`` (compensated on Python >= 3.12) or ``math.fsum`` differ."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1e16, 1.0, -1e16, 1.0],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [3, 0.1, 0.2],
            [0.1] * 10,
            _wide_window(),
        ],
        ids=["empty", "cancellation", "-0", "-0-0", "+0-0", "ints", "tenths", "window"],
    )
    def test_is_the_plain_left_fold_from_zero(self, values):
        expected = 0.0
        for value in values:
            expected = expected + value
        total = sequential_sum(iter(values))
        assert isinstance(total, float)
        assert struct.pack("<d", total) == struct.pack("<d", expected)

    def test_differs_from_compensated_summation_where_it_should(self):
        assert sequential_sum([1e16, 1.0, -1e16, 1.0]) == 1.0  # Neumaier: 2.0
        assert math.fsum([1e16, 1.0, -1e16, 1.0]) == 2.0
        assert math.copysign(1.0, sequential_sum([-0.0, -0.0])) == 1.0
        window = _wide_window()
        assert sequential_sum(window) != math.fsum(window)


class TestWelford:
    def test_empty(self):
        acc = WelfordAccumulator()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.variance == 0.0

    def test_matches_numpy(self):
        values = [3.1, -2.0, 7.5, 0.0, 4.4, 4.4, 9.9]
        acc = WelfordAccumulator()
        for v in values:
            acc.add(v)
        assert acc.mean == pytest.approx(np.mean(values))
        assert acc.variance == pytest.approx(np.var(values, ddof=1))
        assert acc.stddev == pytest.approx(np.std(values, ddof=1))
        assert acc.minimum == min(values)
        assert acc.maximum == max(values)
        assert acc.total == pytest.approx(sum(values))

    def test_single_value_variance_zero(self):
        acc = WelfordAccumulator()
        acc.add(5.0)
        assert acc.variance == 0.0

    def test_merge_equals_combined(self):
        left = [1.0, 2.0, 3.0]
        right = [10.0, 20.0]
        a = WelfordAccumulator()
        b = WelfordAccumulator()
        for v in left:
            a.add(v)
        for v in right:
            b.add(v)
        a.merge(b)
        combined = left + right
        assert a.count == 5
        assert a.mean == pytest.approx(np.mean(combined))
        assert a.variance == pytest.approx(np.var(combined, ddof=1))

    def test_merge_with_empty(self):
        a = WelfordAccumulator()
        a.add(1.0)
        a.merge(WelfordAccumulator())
        assert a.count == 1
        b = WelfordAccumulator()
        b.merge(a)
        assert b.count == 1
        assert b.mean == 1.0


class TestSlidingWindow:
    def test_capacity_eviction(self):
        window = SlidingWindow(capacity=3)
        for i in range(5):
            window.add(float(i), float(i))
        assert len(window) == 3
        assert window.values() == [2.0, 3.0, 4.0]
        assert window.mean == pytest.approx(3.0)

    def test_time_eviction(self):
        window = SlidingWindow(capacity=10)
        for t in range(5):
            window.add(float(t), float(t))
        window.evict_older_than(2.0)
        assert window.values() == [2.0, 3.0, 4.0]

    def test_empty_mean_zero(self):
        assert SlidingWindow(3).mean == 0.0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)


class TestHistogram:
    def test_counts_and_percentiles(self):
        hist = Histogram(0.0, 10.0, bins=10)
        for v in np.linspace(0.05, 9.95, 200):
            hist.add(float(v))
        assert hist.count == 200
        assert hist.underflow == 0 and hist.overflow == 0
        assert hist.percentile(50) == pytest.approx(5.0, abs=0.5)
        assert hist.percentile(90) == pytest.approx(9.0, abs=0.6)

    def test_overflow_underflow(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add(-5.0)
        hist.add(2.0)
        hist.add(0.5)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert sum(hist.counts()) == 1

    def test_empty_percentile_zero(self):
        assert Histogram(0.0, 1.0).percentile(50) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0).percentile(101)

    def test_upper_edge_value_lands_in_overflow(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add(1.0)
        assert hist.overflow == 1

    def test_percentile_zero_returns_true_minimum(self):
        # Regression: percentile(0) used to return `low` even when every
        # observation sat well above it (target == 0 tripped the
        # underflow check).
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(3.7)
        hist.add(8.0)
        assert hist.percentile(0) == 3.7

    def test_percentile_hundred_returns_true_maximum_with_overflow(self):
        # Regression: percentile(100) used to clamp to `high` whenever any
        # mass sat in the overflow bin.
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(1.0)
        hist.add(25.0)
        assert hist.percentile(100) == 25.0
        assert hist.percentile(0) == 1.0

    def test_extremes_with_underflow_mass(self):
        hist = Histogram(10.0, 20.0, bins=5)
        hist.add(2.0)  # underflow
        hist.add(15.0)
        assert hist.percentile(0) == 2.0
        assert hist.percentile(100) == 15.0

    def test_interior_percentiles_interpolate_open_ended_bins(self):
        hist = Histogram(10.0, 20.0, bins=5)
        for value in (2.0, 4.0, 6.0, 8.0):  # all underflow
            hist.add(value)
        # Interior percentiles stay within the observed range instead of
        # being clamped to the `low` edge above every observation.
        assert 2.0 <= hist.percentile(50) <= 10.0
        hist = Histogram(0.0, 1.0, bins=4)
        for value in (5.0, 6.0, 7.0, 8.0):  # all overflow
            hist.add(value)
        assert 1.0 <= hist.percentile(50) <= 8.0

    def test_percentile_extremes_without_over_or_underflow_are_exact(self):
        hist = Histogram(0.0, 10.0, bins=10)
        for value in (1.25, 4.5, 9.75):
            hist.add(value)
        assert hist.percentile(0) == 1.25
        assert hist.percentile(100) == 9.75


def test_welford_is_finite_under_many_identical_values():
    acc = WelfordAccumulator()
    for _ in range(10000):
        acc.add(1e9)
    assert acc.mean == pytest.approx(1e9)
    assert math.isfinite(acc.variance)
    assert acc.variance == pytest.approx(0.0, abs=1e-3)


class TestHistogramMerge:
    def test_merge_equals_combined_stream(self):
        left = Histogram(0.0, 10.0, bins=20)
        right = Histogram(0.0, 10.0, bins=20)
        combined = Histogram(0.0, 10.0, bins=20)
        for value in (0.5, 1.5, 2.5, 11.0, -1.0):
            left.add(value)
            combined.add(value)
        for value in (3.5, 9.9, 12.0):
            right.add(value)
            combined.add(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.counts() == combined.counts()
        assert left.underflow == combined.underflow
        assert left.overflow == combined.overflow
        assert left.min_value == combined.min_value
        assert left.max_value == combined.max_value
        for q in (0, 25, 50, 75, 95, 100):
            assert left.percentile(q) == combined.percentile(q)

    def test_merge_with_empty_is_identity(self):
        hist = Histogram(0.0, 10.0, bins=4)
        hist.add(2.0)
        before = hist.to_dict()
        hist.merge(Histogram(0.0, 10.0, bins=4))
        assert hist.to_dict() == before

    def test_merge_incompatible_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 10.0, bins=4).merge(Histogram(0.0, 20.0, bins=4))
        with pytest.raises(ValueError):
            Histogram(0.0, 10.0, bins=4).merge(Histogram(0.0, 10.0, bins=8))

    def test_dict_round_trip(self):
        hist = Histogram(0.0, 5.0, bins=10)
        for value in (-1.0, 0.1, 2.2, 4.9, 7.0):
            hist.add(value)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.percentile(50) == hist.percentile(50)
        assert clone.min_value == hist.min_value
        assert clone.max_value == hist.max_value

    def test_empty_dict_round_trip(self):
        hist = Histogram(0.0, 5.0, bins=3)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.count == 0
        assert clone.percentile(95) == 0.0


# ----------------------------------------------------------------------
# Folded is eager: add_many against the one-at-a-time references
# ----------------------------------------------------------------------
def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


#: Subnormals to 1e300, both signs, zeros: whatever a timing could be.
wide_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True
)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(wide_floats, max_size=60), data=st.data())
def test_welford_add_many_is_repeated_add_bit_for_bit(values, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=4)))
    eager, folded, single = EagerWelford(), WelfordAccumulator(), WelfordAccumulator()
    for value in values:
        eager.add(value)
        single.add(value)
    for begin, end in zip([0] + cuts, cuts + [len(values)]):
        folded.add_many(values[begin:end])  # some of them empty: a no-op
    for field in WELFORD_FIELDS:
        expected = _bits(getattr(eager, field))
        assert _bits(getattr(folded, field)) == expected, field
        assert _bits(getattr(single, field)) == expected, field


def test_welford_add_many_of_nothing_changes_nothing():
    acc = WelfordAccumulator()
    acc.add_many([])
    assert (acc.count, acc.total, acc.mean, acc.minimum, acc.maximum) == (
        0, 0.0, 0.0, math.inf, -math.inf
    )
    acc.add_many(iter([2.0, 4.0]))  # any iterable
    acc.add_many(())
    assert (acc.count, acc.mean, acc.variance) == (2, 3.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.one_of(wide_floats, st.floats(min_value=-1.0, max_value=11.0)), max_size=60
    ),
    cut=st.integers(0, 60),
)
def test_histogram_add_many_is_repeated_add(values, cut):
    eager, folded = Histogram(0.0, 10.0, bins=7), Histogram(0.0, 10.0, bins=7)
    for value in values:
        histogram_add(eager, value)
    folded.add_many(values[:cut])
    folded.add_many(values[cut:])
    assert folded.to_dict() == eager.to_dict()
    assert (folded.min_value, folded.max_value) == (eager.min_value, eager.max_value)
