"""Replication: the headline comparison across seeds.

The paper reports one run per controller.  This bench re-runs the
(shortened) paper workload under each controller over several seeds and
reports mean +/- std goal attainment — establishing that the QS > QP >
no-control ordering on the OLTP class is not a single-seed accident.

The controller x seed cross-product fans out over worker processes via
``jobs=``; the second bench pins the contract that parallel execution
never changes results.
"""

from __future__ import annotations

import os

from repro.experiments.replication import compare, comparison_table, replicate

SEEDS = (7, 21, 42)
CONTROLLERS = ("none", "qp", "qs")
JOBS = min(4, os.cpu_count() or 1)


def test_controller_ordering_across_seeds(report, ablation_config):
    summaries = compare(CONTROLLERS, seeds=SEEDS, config=ablation_config, jobs=JOBS)
    report("")
    report("=== Replication: attainment across seeds {} (jobs={}) ===".format(
        SEEDS, JOBS))
    report(comparison_table(summaries, ["class1", "class2", "class3"]).text())

    for summary in summaries.values():
        assert summary.errors == []
    qs = summaries["qs"]
    qp = summaries["qp"]
    none = summaries["none"]
    # The ordering of mean class-3 attainment must hold across seeds.
    assert qs.attainment_mean("class3") >= qp.attainment_mean("class3")
    assert qp.attainment_mean("class3") >= none.attainment_mean("class3") - 0.05
    assert qs.attainment_mean("class3") > none.attainment_mean("class3")
    # And QS's advantage exceeds its own across-seed noise.
    gap = qs.attainment_mean("class3") - none.attainment_mean("class3")
    assert gap > qs.attainment_std("class3")


def test_parallel_replicate_matches_serial(ablation_config):
    """Acceptance pin: jobs=4 gives identical aggregates to jobs=1."""
    seeds = (7, 21, 42, 63)
    serial = replicate("qs", seeds, config=ablation_config, jobs=1)
    parallel = replicate("qs", seeds, config=ablation_config, jobs=JOBS)

    assert serial.errors == [] and parallel.errors == []
    assert set(serial.per_class) == set(parallel.per_class)
    for name, stats in serial.per_class.items():
        other = parallel.per_class[name]
        # Bitwise identity, not approximate: the workers run the exact
        # same deterministic simulations and the aggregation order is
        # pinned to seed order.
        assert stats.attainment.mean == other.attainment.mean
        assert stats.attainment.stddev == other.attainment.stddev
        assert stats.metric_mean.mean == other.metric_mean.mean
        assert stats.metric_mean.stddev == other.metric_mean.stddev
