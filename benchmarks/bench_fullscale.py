"""Full-scale run: the paper's true time dimensions.

Every other bench uses 240 s periods (half the paper's 8 minutes) to keep
the suite fast.  This bench runs Figure 6 once at the paper's actual
480-second periods — 144 minutes of simulated wall clock — and checks that
the headline behaviour not only survives the scale-up but sharpens (the
control loop's lag shrinks relative to the period length).
"""

from __future__ import annotations

from repro.config import WorkloadScaleConfig, default_config
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.report import attainment_table

HEAVY = (3, 6, 9, 12, 15, 18)
LIGHT = (1, 4, 7, 10, 13, 16)


def test_fullscale_paper_periods(report):
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=480.0, num_periods=18)
    )
    result = run_spec(ExperimentSpec(controller="qs", config=config))
    report("")
    report("=== Full scale: 18 x 480s periods (the paper's dimensions) ===")
    report(attainment_table(result.collector, result.classes).text())
    class3 = next(c for c in result.classes if c.name == "class3")
    series3 = result.collector.performance_series(class3)
    heavy = [series3[p - 1] for p in HEAVY if series3[p - 1] is not None]
    light = [series3[p - 1] for p in LIGHT if series3[p - 1] is not None]
    report("class3 heavy rts: {}".format(["{:.3f}".format(v) for v in heavy]))
    report("class3 light rts: {}".format(["{:.3f}".format(v) for v in light]))

    # Scaling up must not degrade the headline claims.
    attainment = result.collector.goal_attainment(class3)
    report("class3 attainment at full scale: {:.0%}".format(attainment))
    assert attainment >= 0.7
    assert all(v <= class3.goal.target * 1.2 for v in heavy)
    assert all(v <= class3.goal.target for v in light)
    for name in ("class1", "class2"):
        olap = next(c for c in result.classes if c.name == name)
        assert result.collector.goal_attainment(olap) >= 0.6
