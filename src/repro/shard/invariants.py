"""Global (cross-shard) invariants of the sharded control plane.

Each shard already runs the full per-deployment validation harness
(:mod:`repro.validation`) when the base spec asks for it; the checks here
cover what no single shard can see:

* **Routing conservation** — every client session the global schedule
  admits lands on exactly one shard: the per-(class, period) counts of
  the routed shard schedules sum to the global schedule's.
* **Cost-limit partition** — the per-shard system cost limits sum
  exactly to the configured global limit (nobody mints capacity).
* **Completion conservation** — the merged report accounts for every
  completed query: per-class completions across shard summaries sum to
  the report's totals.

Violations reuse :class:`repro.validation.Violation`, so strict-mode
handling, formatting, and JSON embedding are shared with the per-shard
harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.validation import Severity, Violation
from repro.workloads.schedule import PeriodSchedule

#: Absolute slack for the cost-partition sum (float accumulation drift;
#: the static splitter pins the last share, so static mode is exact).
COST_SUM_TOLERANCE = 1e-6


def check_routing_conservation(
    global_schedule: PeriodSchedule,
    shard_schedules: Sequence[PeriodSchedule],
    time: float = 0.0,
) -> List[Violation]:
    """Per-(class, period) shard counts must sum to the global schedule."""
    violations: List[Violation] = []
    shard_classes = set()
    for schedule in shard_schedules:
        shard_classes.update(schedule.counts)
    if shard_classes - set(global_schedule.counts):
        violations.append(
            Violation(
                name="shard_routing_conservation",
                message="shards schedule classes the global schedule lacks: {}".format(
                    sorted(shard_classes - set(global_schedule.counts))
                ),
                severity=Severity.CRITICAL,
                time=time,
            )
        )
    for class_name in sorted(global_schedule.counts):
        for period in range(global_schedule.num_periods):
            expected = global_schedule.counts[class_name][period]
            routed = sum(
                schedule.counts.get(class_name, (0,) * schedule.num_periods)[period]
                for schedule in shard_schedules
            )
            if routed != expected:
                violations.append(
                    Violation(
                        name="shard_routing_conservation",
                        message=(
                            "class {!r} period {}: {} clients routed, "
                            "schedule admits {}".format(
                                class_name, period, routed, expected
                            )
                        ),
                        severity=Severity.CRITICAL,
                        time=time,
                    )
                )
    return violations


def check_cost_partition(
    total_limit: float,
    shard_limits: Sequence[float],
    time: float = 0.0,
) -> List[Violation]:
    """Per-shard cost limits must sum (exactly) to the global limit."""
    violations: List[Violation] = []
    for index, limit in enumerate(shard_limits):
        if limit <= 0:
            violations.append(
                Violation(
                    name="shard_cost_partition",
                    message="shard {} has non-positive cost limit {:g}".format(
                        index, limit
                    ),
                    severity=Severity.CRITICAL,
                    time=time,
                )
            )
    drift = abs(sum(shard_limits) - total_limit)
    if drift > COST_SUM_TOLERANCE:
        violations.append(
            Violation(
                name="shard_cost_partition",
                message=(
                    "shard cost limits sum to {:g}, configured global limit "
                    "is {:g} (drift {:g})".format(
                        sum(shard_limits), total_limit, drift
                    )
                ),
                severity=Severity.CRITICAL,
                time=time,
            )
        )
    return violations


def check_completion_conservation(
    shard_completions: Sequence[Dict[str, int]],
    merged_completions: Dict[str, int],
    time: float = 0.0,
    shard_totals: Sequence[int] = (),
    merged_total: Optional[int] = None,
) -> List[Violation]:
    """The merged report must account for every shard's completions.

    ``merged_completions`` and ``merged_total`` are the report's own
    numbers, never a sum recomputed from the same summaries; the total is
    checked against ``shard_totals`` when given.
    """
    violations: List[Violation] = []
    summed: Dict[str, int] = {}
    for completions in shard_completions:
        for class_name, count in completions.items():
            summed[class_name] = summed.get(class_name, 0) + int(count)
    for class_name in sorted(set(summed) | set(merged_completions)):
        mine = summed.get(class_name, 0)
        reported = merged_completions.get(class_name, 0)
        if mine != reported:
            violations.append(
                Violation(
                    name="shard_completion_conservation",
                    message=(
                        "class {!r}: shards completed {} queries, merged "
                        "report says {}".format(class_name, mine, reported)
                    ),
                    severity=Severity.ERROR,
                    time=time,
                )
            )
    if merged_total is not None and sum(shard_totals) != merged_total:
        violations.append(
            Violation(
                name="shard_completion_conservation",
                message="shards completed {} queries in total, merged report "
                "says {}".format(sum(shard_totals), merged_total),
                severity=Severity.ERROR,
                time=time,
            )
        )
    return violations
