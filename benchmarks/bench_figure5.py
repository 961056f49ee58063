"""Figure 5: DB2 Query Patroller priority control (static).

Paper claims reproduced:

* with priority control on, Class 2 performs better than Class 1
  (priorities mirror the classes' importance);
* the static OLAP cost limit cannot react to OLTP intensity, so Class 3
  keeps missing its goal in the heavy-OLTP periods (3, 6, 9, 12, 15, 18);
* with priority control off, the result resembles no control at all.
"""

from __future__ import annotations

from repro.experiments.figures import figure5
from repro.metrics.report import attainment_table, period_table

HEAVY_PERIODS = (3, 6, 9, 12, 15, 18)


def test_qp_priority_control(report, paper_config):
    result = figure5(paper_config, priority_control=True)
    report("")
    report(
        period_table(
            result.collector,
            result.classes,
            title="=== Figure 5: DB2 QP priority control ===",
        ).text()
    )
    report(attainment_table(result.collector, result.classes).text())

    class3 = next(c for c in result.classes if c.name == "class3")
    series3 = result.collector.performance_series(class3)
    heavy_misses = sum(
        1
        for period in HEAVY_PERIODS
        if series3[period - 1] is not None and series3[period - 1] > class3.goal.target
    )
    report("class3 heavy-period misses: {}/6".format(heavy_misses))
    assert heavy_misses >= 5  # "always missed during periods 3, 6, 9, 12, 15, 18"

    # Class 2 beats Class 1 in the (large) majority of periods.
    s1 = result.collector.metric_series("class1", "velocity")
    s2 = result.collector.metric_series("class2", "velocity")
    comparable = [(a, b) for a, b in zip(s1, s2) if a is not None and b is not None]
    wins = sum(1 for a, b in comparable if b >= a)
    report("class2 >= class1 velocity in {}/{} periods".format(wins, len(comparable)))
    assert wins >= len(comparable) * 0.6


def test_qp_without_priorities_resembles_no_control(report, paper_config):
    """Section 4.2.2: 'the performance was similar to the case with no
    control' when priority control is off."""
    result = figure5(paper_config, priority_control=False)
    report("")
    report(
        period_table(
            result.collector,
            result.classes,
            title="=== Figure 5 (variant): QP, priority control OFF ===",
        ).text()
    )
    class3 = next(c for c in result.classes if c.name == "class3")
    series3 = result.collector.performance_series(class3)
    heavy_misses = sum(
        1
        for period in HEAVY_PERIODS
        if series3[period - 1] is not None and series3[period - 1] > class3.goal.target
    )
    assert heavy_misses >= 5
    # Both OLAP classes keep velocities in the same (high) band.
    s1 = [v for v in result.collector.metric_series("class1", "velocity") if v is not None]
    s2 = [v for v in result.collector.metric_series("class2", "velocity") if v is not None]
    assert abs(sum(s1) / len(s1) - sum(s2) / len(s2)) < 0.12
