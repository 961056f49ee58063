"""Ablation: optimizer cost-estimation error.

Section 5: "Cost-based resource allocation is somehow inaccurate.
Estimating the resource demands of a query is the ultimate solution."  This
bench sweeps the optimizer's multiplicative estimation noise and measures
how goal attainment degrades — quantifying how much the framework's
effectiveness depends on estimate quality.
"""

from __future__ import annotations

import os

from repro.experiments.sensitivity import sweep

SIGMAS = (0.0, 0.1, 0.3, 0.6)
JOBS = min(len(SIGMAS), os.cpu_count() or 1)


def test_cost_noise_sweep(report, ablation_config):
    rows = dict(sweep(
        "optimizer.noise_sigma", SIGMAS,
        controller="qs", config=ablation_config, jobs=JOBS,
    ))
    report("")
    report("=== Ablation: optimizer noise (sigma) vs goal attainment ===")
    report("{:>8} | {:>8} | {:>8} | {:>8}".format("sigma", "class1", "class2", "class3"))
    report("-" * 44)
    for sigma in SIGMAS:
        att = rows[sigma]
        report("{:>8.1f} | {:>7.0%} | {:>7.0%} | {:>7.0%}".format(
            sigma, att["class1"], att["class2"], att["class3"]))

    # Exact estimates keep the controller effective.
    assert rows[0.0]["class3"] >= 0.5
    # The controller must degrade gracefully, not collapse, under heavy
    # estimation error (release decisions stay cost-bounded on average).
    assert rows[0.6]["class3"] >= 0.25
    mean_attainment = {
        sigma: sum(att.values()) / len(att) for sigma, att in rows.items()
    }
    # Large noise should not *improve* overall attainment vs no noise.
    assert mean_attainment[0.6] <= mean_attainment[0.0] + 0.15
