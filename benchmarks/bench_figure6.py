"""Figure 6: Query Scheduler control (the paper's system).

Paper claims reproduced:

* Class 3 meets its performance goal nearly all the time, and *oscillates
  around* the goal when its workload intensity is high;
* Class 3 meets its goal in the light and medium OLTP periods;
* Class 2 performs better than Class 1 in most periods;
* both OLAP classes still make progress (velocities stay well above zero).
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.report import attainment_table, period_table

HEAVY = (3, 6, 9, 12, 15, 18)
MEDIUM = (2, 5, 8, 11, 14, 17)
LIGHT = (1, 4, 7, 10, 13, 16)


def test_query_scheduler_control(report, paper_config):
    result = run_spec(ExperimentSpec(controller="qs", config=paper_config))
    report("")
    report(
        period_table(
            result.collector,
            result.classes,
            title="=== Figure 6: Query Scheduler control ===",
        ).text()
    )
    report(attainment_table(result.collector, result.classes).text())

    class3 = next(c for c in result.classes if c.name == "class3")
    series3 = result.collector.performance_series(class3)
    goal = class3.goal.target

    # Light + medium periods: goal met (nearly) everywhere.
    calm = [series3[p - 1] for p in LIGHT + MEDIUM if series3[p - 1] is not None]
    calm_hits = sum(1 for v in calm if v <= goal)
    report("class3 goal hits in light+medium periods: {}/{}".format(calm_hits, len(calm)))
    assert calm_hits >= len(calm) - 2

    # Heavy periods: oscillates *around* the goal — every value inside a
    # tight band around it, not blowing up like the baselines.
    heavy = [series3[p - 1] for p in HEAVY if series3[p - 1] is not None]
    report("class3 heavy-period response times: {}".format(
        ["{:.3f}".format(v) for v in heavy]
    ))
    assert all(v <= goal * 1.25 for v in heavy)
    assert max(heavy) <= goal * 1.25 and min(heavy) >= goal * 0.6

    # Overall attainment is high ("meets its performance goal nearly all
    # the time").
    attainment = result.collector.goal_attainment(class3)
    report("class3 attainment: {:.0%}".format(attainment))
    assert attainment >= 0.65

    # Differentiated OLAP service: Class 2 beats Class 1 in most periods.
    s1 = result.collector.metric_series("class1", "velocity")
    s2 = result.collector.metric_series("class2", "velocity")
    comparable = [(a, b) for a, b in zip(s1, s2) if a is not None and b is not None]
    wins = sum(1 for a, b in comparable if b >= a)
    report("class2 >= class1 velocity in {}/{} periods".format(wins, len(comparable)))
    assert wins > len(comparable) / 2

    # OLAP classes keep making progress.
    for name in ("class1", "class2"):
        values = [v for v in result.collector.metric_series(name, "velocity") if v is not None]
        assert sum(values) / len(values) > 0.25
