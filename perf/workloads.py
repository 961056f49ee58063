"""The four benchmark workloads (see perf/README.md for why each exists).

A workload is prepared once per process (``prepare``: build the specs —
part of set-up) and then run R times (``run``: one deterministic
repeat, from the entry call to the last artefact written).  Everything
here goes through the package's public API only.

All load is closed-loop in virtual time: each simulated client submits
its next query when the previous one completes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.experiments import ExperimentSpec, RunSummary, run_spec, summarize_result
from repro.metrics import save_result
from repro.obs import save_spans_jsonl
from repro.obs.live import TelemetryHub
from repro.scenarios import loads_scenario, to_sharded_experiment_spec
from repro.shard import run_sharded, save_sharded_report
from repro.workloads.schedule import PeriodSchedule

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")

#: Larger than any run's event count, so the one subscriber never drops.
HUB_QUEUE = 1 << 16


@dataclass
class Outcome:
    """What one repeat produced, for the harness to read afterwards."""

    #: One summary per run (or shard), labelled "qs" / "none" / "shard03".
    summaries: List[Tuple[str, RunSummary]]
    hub_events: list = field(default_factory=list)
    hub_published: int = 0
    hub_dropped: int = 0
    tracer_spans: int = 0
    export_bytes: int = 0
    #: Cross-shard invariant violations (per-shard ones are in telemetry).
    cross_violations: int = 0
    #: Per-shard cost limits in force at the end of a sharded run.
    final_cost_limits: Optional[List[float]] = None


@dataclass
class Prepared:
    """A workload ready to repeat: its run function and what describes it."""

    run: Callable[[str], Outcome]
    #: JSON-safe description of exactly what runs (hashed into spec_digest).
    spec: Dict
    system_cost_limit: float
    #: Set-up stages only some workloads have, in milliseconds.
    setup_ms: Dict[str, float] = field(
        default_factory=lambda: {
            "scenarios.load_ms": 0.0,
            "scenarios.compile_ms": 0.0,
            "shard.route_ms": 0.0,
        }
    )


def _describe_spec(spec: ExperimentSpec) -> Dict:
    """An ExperimentSpec as plain data (its repr holds object addresses)."""
    from dataclasses import asdict

    schedule = spec.schedule
    return {
        "controller": spec.controller,
        "config": asdict(spec.config) if spec.config is not None else None,
        "schedule": None
        if schedule is None
        else {"period_seconds": schedule.period_seconds, "counts": schedule.counts},
        "classes": None
        if spec.classes is None
        else [
            [c.name, c.kind, c.goal.metric, c.goal.target, c.importance]
            for c in spec.classes
        ],
        "invariants": spec.invariants,
        "tracing": spec.tracing,
        "backend": spec.backend,
        "horizon": spec.horizon,
    }


def _file_bytes(*paths: str) -> int:
    return sum(os.path.getsize(path) for path in paths)


# ----------------------------------------------------------------------
# paper_qs / paper_baselines: the Figure 3 replication spec
# ----------------------------------------------------------------------
def _replication_spec(controller: str, seed: int, smoke: bool) -> ExperimentSpec:
    """Exactly ``repro bench``'s ``replication`` case (smoke: its smoke scale)."""
    interval = 15.0 if smoke else 60.0
    config = default_config(
        seed=seed,
        scale=WorkloadScaleConfig(
            period_seconds=30.0 if smoke else 120.0,
            num_periods=2 if smoke else 9,
        ),
        monitor=MonitorConfig(
            snapshot_interval=min(30.0, interval / 2.0), response_time_window=30.0
        ),
        planner=PlannerConfig(control_interval=interval),
    )
    return ExperimentSpec(controller=controller, config=config)


def _prepare_paper(controllers: Tuple[str, ...], seed: int, smoke: bool) -> Prepared:
    specs = [_replication_spec(name, seed, smoke) for name in controllers]

    def run(out_dir: str) -> Outcome:
        return Outcome(
            summaries=[
                (name, summarize_result(run_spec(spec)))
                for name, spec in zip(controllers, specs)
            ]
        )

    return Prepared(
        run=run,
        spec={"runs": [_describe_spec(spec) for spec in specs]},
        system_cost_limit=specs[0].config.system_cost_limit,
    )


def prepare_paper_qs(seed: int, smoke: bool) -> Prepared:
    return _prepare_paper(("qs",), seed, smoke)


def prepare_paper_baselines(seed: int, smoke: bool) -> Prepared:
    return _prepare_paper(("none", "qp"), seed, smoke)


# ----------------------------------------------------------------------
# control_dense: the control path with every per-interval observer on
# ----------------------------------------------------------------------
def _control_dense_spec(seed: int, smoke: bool) -> ExperimentSpec:
    periods = 2 if smoke else 15
    period_seconds = 20.0 if smoke else 120.0
    classes = [
        ServiceClass(
            "olap{}".format(index + 1),
            "olap",
            VelocityGoal(round(0.30 + 0.05 * index, 2)),
            importance=1 + index % 3,
        )
        for index in range(7)
    ]
    classes.append(ServiceClass("oltp", "oltp", ResponseTimeGoal(0.25), importance=3))
    counts = {
        # Each OLAP class alternates 1 <-> 2 clients, odd classes in
        # antiphase to even ones; the OLTP class cycles 1/2/3.
        c.name: [1 + (period + index) % 2 for period in range(periods)]
        for index, c in enumerate(classes[:-1])
    }
    counts["oltp"] = [1 + period % 3 for period in range(periods)]
    config = default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=period_seconds, num_periods=periods),
        # The CLI's derivation for a 1 s interval (the real-time default).
        monitor=MonitorConfig(snapshot_interval=0.5, response_time_window=10.0),
        planner=PlannerConfig(control_interval=1.0, model="learned"),
    )
    return ExperimentSpec(
        controller="qs",
        config=config,
        schedule=PeriodSchedule(period_seconds, counts),
        classes=classes,
        invariants="strict",
        tracing=True,
    )


def prepare_control_dense(seed: int, smoke: bool) -> Prepared:
    spec = _control_dense_spec(seed, smoke)

    def run(out_dir: str) -> Outcome:
        hub = TelemetryHub()
        subscription = hub.subscribe(max_queue=HUB_QUEUE)
        result = run_spec(spec, hub=hub)
        events = subscription.drain()
        tracer = result.extras["tracer"]
        paths = [
            os.path.join(out_dir, name)
            for name in ("telemetry.jsonl", "spans.jsonl", "result.json")
        ]
        result.extras["telemetry"].save_jsonl(paths[0])
        save_spans_jsonl(tracer.spans, paths[1])
        save_result(result, paths[2])
        return Outcome(
            summaries=[("qs", summarize_result(result))],
            hub_events=events,
            hub_published=hub.seq,
            hub_dropped=subscription.dropped,
            tracer_spans=len(tracer.spans),
            export_bytes=_file_bytes(*paths),
        )

    return Prepared(
        run=run,
        spec=_describe_spec(spec),
        system_cost_limit=spec.config.system_cost_limit,
    )


# ----------------------------------------------------------------------
# fleet_lockstep: eight shards advanced in control-interval slices
# ----------------------------------------------------------------------
def prepare_fleet_lockstep(seed: int, smoke: bool) -> Prepared:
    path = os.path.join(SCENARIO_DIR, "fleet-lockstep.yaml")
    begin = time.process_time()
    with open(path) as handle:
        text = handle.read()
    scenario = loads_scenario(text)
    loaded = time.process_time()
    spec = to_sharded_experiment_spec(scenario, smoke=smoke, seed=seed)
    compiled = time.process_time()
    shard_specs = spec.shard_specs()
    routed = time.process_time()

    def run(out_dir: str) -> Outcome:
        hub = TelemetryHub()
        subscription = hub.subscribe(max_queue=HUB_QUEUE)
        result = run_sharded(spec, jobs=1, hub=hub)
        events = subscription.drain()
        report_path = os.path.join(out_dir, "report.json")
        save_sharded_report(result.report, report_path)
        return Outcome(
            summaries=[(summary.label, summary) for summary in result.summaries],
            hub_events=events,
            hub_published=hub.seq,
            hub_dropped=subscription.dropped,
            export_bytes=_file_bytes(report_path),
            cross_violations=len(result.violations),
            final_cost_limits=list(result.final_cost_limits),
        )

    return Prepared(
        run=run,
        spec={
            "scenario": text,
            "smoke": smoke,
            "seed": seed,
            "shards": [_describe_spec(shard) for shard in shard_specs],
        },
        system_cost_limit=spec.base.config.system_cost_limit,
        setup_ms={
            "scenarios.load_ms": (loaded - begin) * 1e3,
            "scenarios.compile_ms": (compiled - loaded) * 1e3,
            "shard.route_ms": (routed - compiled) * 1e3,
        },
    )


#: name -> (prepare function, one-line reason it is in the benchmark).
WORKLOADS: Dict[str, Callable[[int, bool], Prepared]] = {
    "paper_qs": prepare_paper_qs,
    "paper_baselines": prepare_paper_baselines,
    "control_dense": prepare_control_dense,
    "fleet_lockstep": prepare_fleet_lockstep,
}
