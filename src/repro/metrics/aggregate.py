"""Cross-run and cross-shard metric aggregation.

Combining per-run (or per-shard) aggregates is where SLO reports silently
go wrong: averaging each run's *mean* attainment weights a shard that
completed 40 queries the same as one that completed 40,000 (mean of
means).  The helpers here do the composition correctly:

* :func:`weighted_attainment` — attainment pooled by completed-query
  counts, so every completed query carries equal weight regardless of
  which run or shard it finished on;
* :func:`merge_histograms` / :func:`merge_histogram_states` — exact
  distribution composition via :meth:`~repro.sim.stats.Histogram.merge`,
  so cross-shard percentiles come from the combined mass, not from
  averaging per-shard percentiles.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.sim.stats import Histogram, sequential_sum

#: One aggregation input: (attainment fraction, completed-query weight).
WeightedValue = Tuple[float, float]


def weighted_attainment(pairs: Iterable[WeightedValue]) -> float:
    """Pool per-run attainment fractions by completed-query counts.

    ``pairs`` are ``(attainment, completions)`` per run/shard.  Entries
    with zero weight contribute nothing — an idle shard that completed no
    queries of a class cannot drag the class's SLO report down.  When
    *every* entry has zero weight the plain mean of the attainments is
    returned (there is nothing to weight by), and an empty input yields
    ``0.0``.
    """
    pairs = list(pairs)
    if not pairs:
        return 0.0
    total_weight = sequential_sum(weight for _, weight in pairs)
    if total_weight <= 0:
        return sequential_sum(value for value, _ in pairs) / len(pairs)
    return sequential_sum(value * weight for value, weight in pairs) / total_weight


def merge_histograms(histograms: Sequence[Histogram]) -> Optional[Histogram]:
    """Merge histograms into one fresh histogram (None for empty input).

    All inputs must share the same range and bin count (they do when they
    come from :class:`~repro.metrics.collector.MetricsCollector` cells);
    the inputs are not mutated.
    """
    merged: Optional[Histogram] = None
    for histogram in histograms:
        if merged is None:
            merged = Histogram(histogram.low, histogram.high, histogram.bins)
        merged.merge(histogram)
    return merged


def merge_histogram_states(states: Sequence[Mapping]) -> Optional[Histogram]:
    """Merge serialized histogram states (``Histogram.to_dict`` dicts).

    The form cross-process summaries carry: per-shard
    :class:`~repro.experiments.parallel.RunSummary` objects hold plain
    dict states, and the sharded report merges them back into one live
    histogram for percentile queries.
    """
    if not states:
        return None
    return merge_histograms([Histogram.from_dict(state) for state in states])
