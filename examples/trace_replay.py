"""Trace record & replay: compare controllers on identical offered load.

Records the exact arrival stream of a mixed workload once, then replays it
against two differently controlled systems — so the comparison is free of
closed-loop feedback (where a slow system generates fewer arrivals and
flatters itself).

Run with:  python examples/trace_replay.py
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import build_bundle, make_controller
from repro.metrics.report import attainment_table
from repro.workloads.schedule import PeriodSchedule
from repro.workloads.trace import TraceRecorder, TraceReplayer


def config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=60.0, num_periods=4),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=30.0),
        planner=PlannerConfig(control_interval=30.0),
    )


def schedule():
    return PeriodSchedule(
        60.0,
        {
            "class1": (2, 3, 2, 3),
            "class2": (3, 4, 3, 4),
            "class3": (10, 22, 10, 22),
        },
    )


def record_trace():
    """Drive the closed-loop workload once (no control) and capture it."""
    bundle = build_bundle(config=config(), schedule=schedule())
    recorder = TraceRecorder(bundle.sim, bundle.patroller)
    controller = make_controller(bundle, "none")
    controller.start()
    bundle.manager.start()
    bundle.run()
    return recorder.trace


def replay_under(trace, controller_name):
    """Replay the captured arrivals under a given controller."""
    bundle = build_bundle(config=config(), schedule=schedule())
    controller = make_controller(bundle, controller_name)
    controller.start()
    # NOTE: no manager.start() — the replayer is the only load source.
    replayer = TraceReplayer(bundle.sim, bundle.patroller, bundle.factory, trace)
    replayer.start()
    bundle.run()
    return bundle


def main() -> None:
    print("recording trace (no control run)...")
    trace = record_trace()
    print("captured {} arrivals over {:.0f}s across classes {}".format(
        len(trace), trace.duration, ", ".join(trace.classes())))
    print()
    for name in ("none", "qs"):
        print("replaying under {!r}...".format(name))
        bundle = replay_under(trace, name)
        print(attainment_table(bundle.collector, bundle.classes,
                               title="results ({})".format(name)).text())
        print()


if __name__ == "__main__":
    main()
