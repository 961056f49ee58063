"""Ablation: utility-function family.

The framework expresses goals and importance through utility functions
(Section 2).  This bench runs the Query Scheduler with each provided family
on the shortened paper workload and compares per-class goal attainment —
the shared contract (importance-weighted below goal, importance-free above)
should make all three families behave similarly, with the step family the
most brittle because its search surface is nearly flat below goal.
"""

from __future__ import annotations

import os

from repro.experiments.sensitivity import sweep

FAMILIES = ("piecewise", "sigmoid", "step")
JOBS = min(len(FAMILIES), os.cpu_count() or 1)


def test_utility_family_sweep(report, ablation_config):
    rows = dict(sweep(
        "planner.utility", FAMILIES,
        controller="qs", config=ablation_config, jobs=JOBS,
    ))
    report("")
    report("=== Ablation: utility family vs goal attainment ===")
    report("{:>12} | {:>8} | {:>8} | {:>8}".format("family", "class1", "class2", "class3"))
    report("-" * 48)
    for family in FAMILIES:
        att = rows[family]
        report("{:>12} | {:>7.0%} | {:>7.0%} | {:>7.0%}".format(
            family, att["class1"], att["class2"], att["class3"]))

    # The default (piecewise) family must protect the OLTP class well.
    assert rows["piecewise"]["class3"] >= 0.5
    # Each family must keep the controller functional (no class collapses).
    for family in FAMILIES:
        total = sum(rows[family].values())
        assert total >= 1.2, "family {} collapsed: {}".format(family, rows[family])
