"""Ablation: direct OLTP interception overhead (Section 3's motivation).

The paper controls the OLTP class *indirectly* because "the overhead from a
separate controller is significant for OLTP queries with sub-second
execution time and could be significantly larger than the execution time".
This bench measures exactly that: the same TPC-C workload with QP bypassed
(the paper's choice) versus intercepted-and-immediately-released (direct
control with zero queueing), and reports the response-time inflation and
throughput loss caused by interception alone.
"""

from __future__ import annotations

import pytest

from repro.config import default_config
from repro.core.service_class import ResponseTimeGoal, ServiceClass
from repro.experiments.runner import build_bundle
from repro.patroller.policy import QPStaticPolicy
from repro.workloads.schedule import constant_schedule


def _run(intercept_oltp: bool):
    config = default_config()
    classes = [ServiceClass("class3", "oltp", ResponseTimeGoal(0.25), importance=3)]
    schedule = constant_schedule(60.0, 2, {"class3": 10})
    bundle = build_bundle(config=config, schedule=schedule, classes=classes)
    if intercept_oltp:
        bundle.patroller.enable_for_class("class3")
        # Direct control with no admission queueing at all: every query is
        # released the moment it is intercepted, so the *only* difference
        # from bypass is QP's own overhead.
        QPStaticPolicy(bundle.patroller, groups=[], priorities={},
                       global_cost_limit=None).start()
    bundle.manager.start()
    bundle.run()
    rt = [
        v for v in bundle.collector.metric_series("class3", "response_time")
        if v is not None
    ]
    tput = [
        v for v in bundle.collector.metric_series("class3", "throughput")
        if v is not None
    ]
    return sum(rt) / len(rt), sum(tput) / len(tput)


def test_interception_overhead_dominates_oltp(report):
    bypass_rt, bypass_tput = _run(intercept_oltp=False)
    direct_rt, direct_tput = _run(intercept_oltp=True)
    inflation = direct_rt / bypass_rt
    report("")
    report("=== Ablation: direct OLTP interception overhead ===")
    report("{:>24} | {:>10} | {:>12}".format("mode", "avg rt (s)", "tx/sec"))
    report("-" * 52)
    report("{:>24} | {:>10.3f} | {:>12.1f}".format("bypass (paper)", bypass_rt, bypass_tput))
    report("{:>24} | {:>10.3f} | {:>12.1f}".format("direct interception", direct_rt, direct_tput))
    report("response-time inflation: {:.1f}x".format(inflation))

    # The interception overhead must dwarf the bare transaction time,
    # making direct control impractical, exactly as Section 3 argues.
    assert inflation > 2.5
    assert direct_tput < bypass_tput * 0.6
    # And the overhead exceeds the SLO itself: with interception on, the
    # goal is unmeetable no matter what the scheduler does.
    assert direct_rt > 0.25
    assert bypass_rt < 0.25
