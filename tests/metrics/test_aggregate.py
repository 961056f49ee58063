"""Tests for cross-run aggregation helpers (the aggregation-bug fixes)."""

import pytest

from repro.metrics.aggregate import (
    merge_histogram_states,
    merge_histograms,
    weighted_attainment,
)
from repro.sim.stats import Histogram


class TestWeightedAttainment:
    def test_pools_by_completions_not_run_count(self):
        # The headline regression: a 10-completion run at 1.0 and a
        # 990-completion run at 0.0 must pool to 0.01, not average to 0.5.
        assert weighted_attainment([(1.0, 10), (0.0, 990)]) == pytest.approx(0.01)

    def test_equal_weights_match_plain_mean(self):
        assert weighted_attainment([(0.2, 5), (0.8, 5)]) == pytest.approx(0.5)

    def test_zero_total_completions_falls_back_to_mean(self):
        assert weighted_attainment([(0.25, 0), (0.75, 0)]) == pytest.approx(0.5)

    def test_empty_input(self):
        assert weighted_attainment([]) == 0.0

    def test_single_entry_is_identity(self):
        assert weighted_attainment([(0.42, 17)]) == pytest.approx(0.42)

    def test_totals_are_plain_left_folds_on_every_python(self):
        # Builtin sum() is compensated on Python >= 3.12 and would pool
        # these to 0.5; the harness's headline facts go through here.
        values = [1e16, 1.0, -1e16, 1.0]
        assert weighted_attainment([(v, 1) for v in values]) == 0.25
        assert weighted_attainment([(v, 0) for v in values]) == 0.25
        assert weighted_attainment([(1.0, w) for w in values]) == 1.0


class TestMergeHistograms:
    def _hist(self, values):
        hist = Histogram(0.0, 10.0, bins=10)
        for value in values:
            hist.add(value)
        return hist

    def test_merged_equals_concatenated_stream(self):
        merged = merge_histograms([self._hist([1.0, 2.0]), self._hist([8.0])])
        expected = self._hist([1.0, 2.0, 8.0])
        assert merged.to_dict() == expected.to_dict()

    def test_inputs_are_not_mutated(self):
        left = self._hist([1.0])
        right = self._hist([9.0])
        merge_histograms([left, right])
        assert left.count == 1
        assert right.count == 1

    def test_empty_input_returns_none(self):
        assert merge_histograms([]) is None

    def test_states_round_trip_through_serialization(self):
        states = [
            self._hist([1.0, 1.5]).to_dict(),
            self._hist([9.0]).to_dict(),
        ]
        merged = merge_histogram_states(states)
        expected = self._hist([1.0, 1.5, 9.0])
        assert merged.to_dict() == expected.to_dict()

    def test_states_empty_returns_none(self):
        assert merge_histogram_states([]) is None
