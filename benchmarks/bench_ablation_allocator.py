"""Ablation: utility optimization vs the deficit heuristic.

The paper builds plans by *optimizing* utility functions over predicted
performance.  The obvious cheaper alternative is allocating proportionally
to importance x measured deficit, with no performance model at all.  This
bench runs both on the shortened paper workload: the model-based optimizer
should protect the OLTP class at least as well while wasting less OLAP
budget (it predicts how far a limit change moves each class instead of
reacting blindly).
"""

from __future__ import annotations

import os

from repro.experiments.sensitivity import sweep

ALLOCATORS = ("utility", "deficit")
JOBS = min(len(ALLOCATORS), os.cpu_count() or 1)


def test_allocator_sweep(report, ablation_config):
    rows = dict(sweep(
        "planner.allocator", ALLOCATORS,
        controller="qs", config=ablation_config, jobs=JOBS,
    ))
    report("")
    report("=== Ablation: plan construction strategy ===")
    report("{:>10} | {:>8} | {:>8} | {:>8}".format(
        "allocator", "class1", "class2", "class3"))
    report("-" * 46)
    for allocator in ALLOCATORS:
        att = rows[allocator]
        report("{:>10} | {:>7.0%} | {:>7.0%} | {:>7.0%}".format(
            allocator, att["class1"], att["class2"], att["class3"]))

    # Both keep the system functional...
    for allocator in ALLOCATORS:
        assert sum(rows[allocator].values()) >= 1.0
    # ...and the paper's optimizer must not lose to the blind heuristic on
    # the class the whole mechanism exists to protect.
    assert rows["utility"]["class3"] >= rows["deficit"]["class3"] - 0.12
