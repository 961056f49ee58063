"""Cross-shard result merging, formatting, and export.

One sharded run produces N independent
:class:`~repro.experiments.parallel.RunSummary` objects.  This module
folds them into a single :class:`ShardedRunReport` with the aggregation
semantics the paper's SLO report needs:

* per-class attainment is **completion-weighted** across shards
  (:func:`repro.metrics.aggregate.weighted_attainment`) — a shard that
  completed 40 queries must not weigh the same as one that completed
  40,000;
* per-class tail latency comes from **merged histograms**
  (:func:`repro.metrics.aggregate.merge_histogram_states`), not from
  averaging per-shard percentiles (percentiles do not average).

Per-shard telemetry exports derive suffixed sibling paths
(``out.jsonl`` → ``out.shard00.jsonl``) and go through the
overwrite-guarded :meth:`~repro.metrics.telemetry.TelemetryStore.save_jsonl`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.experiments.parallel import RunSummary
from repro.metrics.aggregate import merge_histogram_states, weighted_attainment
from repro.metrics.export import check_export_target, open_export

if TYPE_CHECKING:
    from repro.metrics.report import Table
    from repro.validation.invariants import Violation


def shard_path(path: str, index: int) -> str:
    """The per-shard sibling of an export path: ``out.jsonl`` →
    ``out.shard00.jsonl`` (suffix appended when there is no extension)."""
    root, ext = os.path.splitext(path)
    return "{}.shard{:02d}{}".format(root, index, ext)


@dataclass
class ShardRow:
    """One shard's line in the cross-shard report."""

    index: int
    label: str
    seed: int
    cost_limit: float
    total_completions: int
    attainment: Dict[str, float]


@dataclass
class ShardedRunReport:
    """The merged outcome of one sharded run."""

    shards: int
    router: str
    rebalance: str
    class_names: List[str]
    #: Completion-weighted per-class attainment across all shards.
    attainment: Dict[str, float]
    #: Total completed queries per class across all shards.
    completions: Dict[str, int]
    total_completions: int
    #: Per-class tail latency from cross-shard merged histograms
    #: (``{"p50": ..., "p95": ..., "p99": ...}``; absent when idle).
    percentiles: Dict[str, Dict[str, float]]
    per_shard: List[ShardRow] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every global invariant held."""
        return not self.violations


def build_sharded_report(
    summaries: Sequence[RunSummary],
    shards: int,
    router: str,
    rebalance: str,
    cost_limits: Sequence[float],
    violations: Sequence[Violation] = (),
) -> ShardedRunReport:
    """Fold per-shard summaries into one cross-shard report."""
    class_names: List[str] = []
    for summary in summaries:
        for name in summary.class_names:
            if name not in class_names:
                class_names.append(name)
    attainment: Dict[str, float] = {}
    completions: Dict[str, int] = {}
    percentiles: Dict[str, Dict[str, float]] = {}
    for name in class_names:
        pairs = [
            (
                summary.attainment.get(name, 0.0),
                float(summary.class_completions.get(name, 0)),
            )
            for summary in summaries
            if name in summary.attainment
        ]
        attainment[name] = weighted_attainment(pairs)
        completions[name] = sum(
            int(summary.class_completions.get(name, 0)) for summary in summaries
        )
        states = [
            summary.response_histograms[name]
            for summary in summaries
            if name in summary.response_histograms
        ]
        merged = merge_histogram_states(states)
        if merged is not None and merged.count > 0:
            percentiles[name] = {
                "p50": merged.percentile(50.0),
                "p95": merged.percentile(95.0),
                "p99": merged.percentile(99.0),
            }
    rows = [
        ShardRow(
            index=index,
            label=summary.label or "shard{:02d}".format(index),
            seed=summary.seed,
            cost_limit=float(cost_limits[index]) if index < len(cost_limits) else 0.0,
            total_completions=summary.total_completions,
            attainment=dict(summary.attainment),
        )
        for index, summary in enumerate(summaries)
    ]
    return ShardedRunReport(
        shards=shards,
        router=router,
        rebalance=rebalance,
        class_names=class_names,
        attainment=attainment,
        completions=completions,
        total_completions=sum(s.total_completions for s in summaries),
        percentiles=percentiles,
        per_shard=rows,
        violations=list(violations),
    )


def sharded_tables(report: ShardedRunReport) -> List[Table]:
    """The merged report's sections: per class, per shard, global invariants."""
    from repro.metrics.report import Column, Table, violation_table

    tails = [Column(key, "{:.2f}s") for key in ("p50", "p95", "p99")]
    columns = [Column("class"), Column("attainment", "{:.0%}"), Column("completions")]
    per_class = Table(
        columns + tails,
        [
            [name, report.attainment.get(name, 0.0), report.completions.get(name, 0)]
            + [report.percentiles.get(name, {}).get(tail.header) for tail in tails]
            for name in report.class_names
        ],
        "sharded run: {} shards, router={}, rebalance={}, {} completions".format(
            report.shards, report.router, report.rebalance, report.total_completions
        ),
    )
    shard_columns = [Column("shard"), Column("seed"), Column("limit", "{:.0f}"),
                     Column("completions")]
    per_shard = Table(
        shard_columns,
        [[row.label, row.seed, row.cost_limit, row.total_completions]
         for row in report.per_shard],
    )
    invariants = violation_table(report.violations, "global invariants", empty="ok")
    return [per_class, per_shard, invariants]


def sharded_report_to_dict(report: ShardedRunReport) -> Dict:
    """JSON-ready representation (``repro run --shards N --output``)."""
    return {
        "shards": report.shards,
        "router": report.router,
        "rebalance": report.rebalance,
        "class_names": list(report.class_names),
        "attainment": dict(report.attainment),
        "completions": dict(report.completions),
        "total_completions": report.total_completions,
        "percentiles": {
            name: dict(tails) for name, tails in report.percentiles.items()
        },
        "per_shard": [
            {
                "index": row.index,
                "label": row.label,
                "seed": row.seed,
                "cost_limit": row.cost_limit,
                "total_completions": row.total_completions,
                "attainment": dict(row.attainment),
            }
            for row in report.per_shard
        ],
        "violations": [v.to_dict() for v in report.violations],
        "ok": report.ok,
    }


def save_sharded_report(
    report: ShardedRunReport, path: str, overwrite: bool = False
) -> None:
    """Write the report dict as JSON (overwrite-guarded like every export)."""
    with open_export(path, overwrite) as handle:
        json.dump(sharded_report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def export_shard_telemetry(
    summaries: Sequence[RunSummary],
    path: str,
    overwrite: bool = False,
) -> List[str]:
    """Write each shard's telemetry to a per-shard suffixed path.

    Shard ``i``'s control-interval records go to :func:`shard_path`
    ``(path, i)``; shards without telemetry (baseline controllers) are
    skipped.  Every target is checked before the first is written, so a
    refused export leaves no partial set behind.  Returns the paths written.
    """
    targets = {
        shard_path(path, index): summary
        for index, summary in enumerate(summaries)
        if summary.telemetry_records
    }
    for target in targets:
        check_export_target(target, overwrite)
    for target, summary in targets.items():
        summary.telemetry_store().save_jsonl(target, overwrite=overwrite)
    return list(targets)
