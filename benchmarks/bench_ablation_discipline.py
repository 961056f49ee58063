"""Ablation: within-class queue discipline.

The paper's dispatcher releases queries FIFO within a class.  Workload
managers often use shortest-job-first (more queries packed under the same
cost limit) or aging (SJF without starvation).  This bench runs the Query
Scheduler with each discipline on the shortened paper workload and compares
OLAP velocities and attainment.
"""

from __future__ import annotations

import os

from repro.experiments.parallel import RunRequest, run_requests
from repro.experiments.runner import ExperimentSpec
from repro.experiments.sensitivity import set_config_field

DISCIPLINES = ("fifo", "sjf", "aging")
JOBS = min(len(DISCIPLINES), os.cpu_count() or 1)


def test_queue_discipline_sweep(report, ablation_config):
    # The sweep needs OLAP velocity means on top of attainment, so it uses
    # the parallel layer directly: the RunSummary's goal-metric series for
    # an OLAP class *is* its per-period velocity series.
    requests = [
        RunRequest(
            spec=ExperimentSpec(
                controller="qs",
                config=set_config_field(
                    ablation_config, "planner.queue_discipline", discipline
                ),
            ),
            label=discipline,
        )
        for discipline in DISCIPLINES
    ]

    rows = {}
    for discipline, outcome in zip(DISCIPLINES, run_requests(requests, jobs=JOBS)):
        assert outcome.ok, outcome.error
        summary = outcome.summary
        velocities = {
            name: summary.metric_mean(name) or 0.0
            for name in ("class1", "class2")
        }
        rows[discipline] = (summary.attainment, velocities)
    report("")
    report("=== Ablation: within-class queue discipline ===")
    report("{:>8} | {:>8} | {:>8} | {:>8} | {:>10} | {:>10}".format(
        "queue", "att c1", "att c2", "att c3", "mean vel1", "mean vel2"))
    report("-" * 68)
    for discipline in DISCIPLINES:
        attainment, velocities = rows[discipline]
        report("{:>8} | {:>7.0%} | {:>7.0%} | {:>7.0%} | {:>10.3f} | {:>10.3f}".format(
            discipline,
            attainment["class1"], attainment["class2"], attainment["class3"],
            velocities["class1"], velocities["class2"]))

    # Every discipline keeps the OLTP class protected.
    for discipline in DISCIPLINES:
        assert rows[discipline][0]["class3"] >= 0.5
    # SJF must not *hurt* mean OLAP velocity relative to FIFO (it packs
    # more, cheaper queries under the same limits).
    fifo_vel = sum(rows["fifo"][1].values())
    sjf_vel = sum(rows["sjf"][1].values())
    assert sjf_vel >= fifo_vel - 0.1
