"""System-cost-limit calibration (Section 2, methodology from [4]).

Regenerates the throughput-vs-system-cost-limit curve the paper's authors
used to choose the 30,000-timeron system cost limit: throughput must rise
while under-saturated and flatten/decline past the thrashing knee, with the
knee in the neighbourhood of the chosen limit.
"""

from __future__ import annotations

from repro.experiments.calibration import pick_knee_limit, sweep_system_cost_limit

LIMITS = (10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0)


def test_throughput_vs_system_cost_limit(report, paper_config):
    curve = sweep_system_cost_limit(
        LIMITS,
        config=paper_config,
        olap_clients=32,
        period_seconds=120.0,
        num_periods=3,
        warmup_periods=1,
    )
    report("")
    report("=== Calibration: OLAP throughput vs system cost limit ===")
    report("{:>12} | {:>14}".format("limit (tim)", "queries/sec"))
    report("-" * 30)
    for limit, throughput in curve:
        report("{:>12.0f} | {:>14.4f}".format(limit, throughput))
    knee = pick_knee_limit(curve, tolerance=0.05)
    report("knee (within 5% of peak): {:.0f} timerons".format(knee))
    report("paper's chosen system cost limit: 30000 timerons")

    throughputs = dict(curve)
    # Under-saturated region: throughput strictly grows.
    assert throughputs[20_000.0] > throughputs[10_000.0]
    # Past the knee the curve flattens or declines: the last point must not
    # meaningfully beat the best mid-range point.
    peak = max(throughputs.values())
    assert throughputs[60_000.0] <= peak * 1.02
    # The knee lands in the neighbourhood of the paper's chosen limit.
    assert 20_000.0 <= knee <= 40_000.0
