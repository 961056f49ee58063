"""Extension: MPL-based admission control versus cost-based control.

The paper positions its cost-based control against Schroeder et al.'s
MPL-based admission control ([5]): counting queries is cheap but
cost-blind, so a slot admits a monster as readily as a mouse.  This bench
runs both controllers (and the no-control baseline) on the same shortened
paper workload and compares differentiated goal attainment.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec, run_spec

CONTROLLERS = ("none", "mpl", "qs")


def test_mpl_vs_cost_based(report, ablation_config):
    rows = {}
    for controller in CONTROLLERS:
        result = run_spec(ExperimentSpec(controller=controller, config=ablation_config))
        rows[controller] = result.goal_attainment()
    report("")
    report("=== Extension: MPL vs cost-based control (goal attainment) ===")
    report("{:>8} | {:>8} | {:>8} | {:>8}".format(
        "control", "class1", "class2", "class3"))
    report("-" * 44)
    for controller in CONTROLLERS:
        att = rows[controller]
        report("{:>8} | {:>7.0%} | {:>7.0%} | {:>7.0%}".format(
            controller, att["class1"], att["class2"], att["class3"]))

    # Any admission control beats none for the OLTP class...
    assert rows["mpl"]["class3"] >= rows["none"]["class3"]
    # ...and the cost-based Query Scheduler is at least as good as the
    # cost-blind MPL controller on the class it is designed to protect.
    assert rows["qs"]["class3"] >= rows["mpl"]["class3"]
