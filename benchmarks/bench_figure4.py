"""Figure 4: performance with no class control.

Only the system cost limit is enforced.  Paper claims reproduced:

* no service differentiation — Class 1 and Class 2 track each other;
* Class 3 (OLTP) misses its 0.25 s goal whenever its own intensity is high
  because nothing throttles the competing OLAP load.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.report import attainment_table, period_table

HEAVY_PERIODS = (3, 6, 9, 12, 15, 18)


def test_no_class_control(report, paper_config):
    result = run_spec(ExperimentSpec(controller="none", config=paper_config))
    report("")
    report(
        period_table(
            result.collector,
            result.classes,
            title="=== Figure 4: no class control ===",
        ).text()
    )
    report(attainment_table(result.collector, result.classes).text())

    class3 = next(c for c in result.classes if c.name == "class3")
    series3 = result.collector.performance_series(class3)
    # Class 3 misses its goal in every heavy-OLTP period.
    for period in HEAVY_PERIODS:
        value = series3[period - 1]
        assert value is not None and value > class3.goal.target, (
            "expected a goal miss in heavy period {}".format(period)
        )
    # ... and meets it in the light periods (nothing else is saturated).
    light_hits = sum(
        1
        for period in (1, 4, 7, 10, 13, 16)
        if series3[period - 1] is not None and series3[period - 1] <= class3.goal.target
    )
    assert light_hits >= 5

    # No differentiation between the OLAP classes.
    s1 = result.collector.metric_series("class1", "velocity")
    s2 = result.collector.metric_series("class2", "velocity")
    pairs = [(a, b) for a, b in zip(s1, s2) if a is not None and b is not None]
    mean_gap = sum(abs(a - b) for a, b in pairs) / len(pairs)
    report("mean |class1 - class2| velocity gap: {:.3f}".format(mean_gap))
    assert mean_gap < 0.10
