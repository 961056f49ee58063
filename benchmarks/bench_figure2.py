"""Figure 2: OLTP response time vs total OLAP cost limit.

Paper claims reproduced here:

* average OLTP response time is *almost linear* in the total OLAP cost
  limit while the system is under-saturated (below ~30K timerons);
* more OLTP clients / more OLAP clients shift the curve upward;
* the fitted slope is the constant ``s`` of the OLTP performance model.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figures import FIGURE2_LIMITS, FIGURE2_PAIRS, figure2


def _fit(series):
    xs = np.array([limit for limit, rt in series if rt is not None])
    ys = np.array([rt for _, rt in series if rt is not None])
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def test_oltp_response_vs_olap_limit(report, paper_config):
    data = figure2(
        config=paper_config,
        olap_limits=FIGURE2_LIMITS,
        pairs=FIGURE2_PAIRS,
        period_seconds=120.0,
        num_periods=3,
        warmup_periods=1,
    )
    report("")
    report("=== Figure 2: OLTP avg response time vs OLAP cost limit ===")
    header = "{:>12}".format("limit (tim)") + "".join(
        " | ({:>2},{:>2})".format(*pair) for pair in FIGURE2_PAIRS
    )
    report(header + "   <- (OLTP clients, OLAP clients)")
    report("-" * len(header))
    for index, limit in enumerate(FIGURE2_LIMITS):
        row = "{:>12.0f}".format(limit)
        for pair in FIGURE2_PAIRS:
            rt = data[pair][index][1]
            row += " | {:>7.3f}".format(rt if rt is not None else float("nan"))
        report(row)

    slopes = {}
    for pair in FIGURE2_PAIRS:
        # Fit only the under-saturated region (paper: linear below ~30K).
        under_saturated = [p for p in data[pair] if p[0] <= 25_000.0]
        slope, r2 = _fit(under_saturated)
        slopes[pair] = slope
        report("pair {}: slope = {:.3e} s/timeron, R^2 = {:.3f}".format(pair, slope, r2))
        # Response time must grow with the OLAP cost limit.
        assert slope > 0
        if pair[1] >= 4:
            # Linearity ("almost linear") holds while the limit binds; with
            # >= 4 OLAP clients the closed-loop demand fills every limit in
            # the sweep.
            assert r2 > 0.85, "pair {} not linear (R^2={:.3f})".format(pair, r2)

    # With only 2 OLAP clients the limit stops binding once it exceeds
    # their in-flight demand, so that curve must flatten at high limits.
    two_clients = dict(data[(30, 2)])
    assert abs(two_clients[30_000.0] - two_clients[15_000.0]) < 0.05

    # More OLTP clients shift the whole curve up: (50, 8) above (30, 8).
    heavy = [rt for _, rt in data[(50, 8)] if rt is not None]
    light = [rt for _, rt in data[(30, 8)] if rt is not None]
    assert np.mean(heavy) > np.mean(light)
    # More OLAP clients raise response time at high limits: (30, 8) >= (30, 2)
    # where the limit stops binding for 2 clients.
    assert data[(30, 8)][-1][1] > data[(30, 2)][-1][1]
    report(
        "model slope prior in config: {:.3e} (negated vs OLTP limit)".format(
            -paper_config.planner.oltp_slope_prior
        )
    )
