"""Child process of perf/run.py: measures ONE workload in a fresh interpreter.

Prints one JSON object as the last line of stdout: the exact (simulated
/ counted) facts, the host-time metrics of the untraced repeats and,
with ``--trace 1``, the per-layer fold of one extra repeat under
cProfile.  With ``--setup-only`` it times set-up and stops.  Not meant to
be run by hand — use ``python perf/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import resource
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")

#: Guess of traced / untraced wall time, used only to budget the traced
#: repeat inside ``--seconds`` before its real cost is known.
TRACE_COST_GUESS = 3.0

#: CPU time the simulation advances between two host-speed samples.
SLICE_S = 0.2

#: The measuring clock: CPU seconds of this single-threaded process.  Equal
#: to wall seconds on a quiet host, and unlike them it stands still while
#: the host has taken the virtual CPU away (see calibrate.py).  Wall time
#: (``perf_counter``) is used only for the ``--seconds`` budget and beside
#: the package's own wall-clock ``PlanRecord.overhead``.
clock = time.process_time


class SetupDone(Exception):
    """Raised at the first ``SimulationBundle.run`` of a ``--setup-only`` child."""


class Probe:
    """The harness's view into a run: two wrappers on public methods.

    ``SchedulingPlanner.run_interval`` (once per control interval) is
    timed *including* its plan listeners.

    ``SimulationBundle.run`` (once per run, or once per lockstep slice)
    marks where assembly ends and where the horizon is reached, collects
    the bundles whose public counters are read afterwards, and — unless
    ``slicing`` is off — advances the simulation in slices of about
    :data:`SLICE_S` of CPU time, taking one host-speed sample
    between slices (see calibrate.py).  Repeated ``run(horizon=t)`` calls
    with growing ``t`` are what the lockstep coordinator does too; that
    the results do not change is checked on every ``--trace 1`` run,
    whose traced repeat is not sliced and must produce the same digest.
    """

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.slicing = True
        self.kernel = None if setup_only else calibrate.SpeedKernel()
        #: Simulated seconds per CPU second, learnt from the last slice.
        self.sim_rate: Optional[float] = None
        self.reset()

    def reset(self) -> None:
        self.bundles: List = []
        self.first_run_at: Optional[float] = None
        self.last_run_end: Optional[float] = None
        #: (wall seconds of the call, the PlanRecord.overhead it returned)
        self.intervals: List = []
        #: Host-speed samples of this repeat, and the time those taken
        #: inside it cost (subtracted from the repeat's time).
        self.speed_samples: List[float] = []
        self.kernel_s = 0.0
        self._unsampled_s = 0.0

    def sample(self) -> float:
        """Take one host-speed sample; returns the time it took."""
        begin = clock()
        self.speed_samples.append(self.kernel.sample())
        self._unsampled_s = 0.0
        return clock() - begin

    def install(self) -> None:
        from repro.core.planner import SchedulingPlanner
        from repro.experiments import SimulationBundle

        probe = self
        bundle_run = SimulationBundle.run
        run_interval = SchedulingPlanner.run_interval

        def sliced_run(bundle, end: float) -> None:
            while True:
                now = bundle.sim.now
                if probe.sim_rate is None:
                    step = (end - now) / 64.0  # a short first slice, to learn the rate
                else:
                    step = probe.sim_rate * SLICE_S
                target = end if now + step >= end else now + step
                begin = clock()
                bundle_run(bundle, target)
                spent = clock() - begin
                if target > now and spent > 0:
                    probe.sim_rate = (target - now) / spent
                probe._unsampled_s += spent
                if probe._unsampled_s >= SLICE_S:
                    probe.kernel_s += probe.sample()
                if target >= end:
                    return

        def timed_run(bundle, horizon=None):
            if probe.first_run_at is None:
                probe.first_run_at = clock()
            if probe.setup_only:
                raise SetupDone()
            if not any(bundle is seen for seen in probe.bundles):
                probe.bundles.append(bundle)
            try:
                if probe.slicing:
                    sliced_run(bundle, bundle.schedule.horizon if horizon is None else horizon)
                else:
                    bundle_run(bundle, horizon)
            finally:
                probe.last_run_end = clock()

        def timed_interval(planner, trigger="scheduled"):
            begin = time.perf_counter()
            record = run_interval(planner, trigger)
            probe.intervals.append((time.perf_counter() - begin, record.overhead))
            return record

        SimulationBundle.run = timed_run
        SchedulingPlanner.run_interval = timed_interval


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def iqr_share(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# What one repeat did: exact facts (must repeat exactly) and host facts
# ----------------------------------------------------------------------
def exact_facts(outcome, probe: Probe, system_cost_limit: float) -> Dict:
    """Simulated results and counts of one repeat — identical every repeat."""
    from repro.metrics.aggregate import weighted_attainment

    bundles = probe.bundles
    queries = sum(b.engine.completed_queries for b in bundles)
    events = sum(b.sim.fired_events for b in bundles)
    intercepted = sum(b.patroller.intercepted_count for b in bundles)
    bypassed = sum(b.patroller.bypassed_count for b in bundles)
    failed = 0
    for bundle in bundles:
        statuses = bundle.patroller.tables.counts_by_status()
        failed += statuses.get("cancelled", 0) + statuses.get("rejected", 0)
    solvers = [b.controller.solver for b in bundles if hasattr(b.controller, "solver")]
    intervals = len(probe.intervals)

    # RunSummary carries no class kinds; every bundle runs the same classes.
    kinds = {c.name: c.kind for c in bundles[0].classes}
    oltp, olap, attainment, oltp_attainment = [], [], [], []
    by_run: Dict[str, float] = {}
    violations = outcome.cross_violations
    digest = hashlib.sha256()
    for label, summary in outcome.summaries:
        violations += sum(len(r.violations) for r in summary.telemetry_records)
        digest.update(
            json.dumps(
                [
                    label,
                    summary.class_names,
                    summary.performance_series,
                    summary.class_completions,
                    summary.attainment,
                    summary.total_completions,
                ],
                sort_keys=True,
            ).encode()
        )
        for name in summary.class_names:
            weight = summary.class_completions.get(name, 0)
            attainment.append((summary.attainment[name], weight))
            mean = summary.metric_mean(name)
            if kinds[name] == "oltp":
                oltp_attainment.append((summary.attainment[name], weight))
                by_run[label] = summary.attainment[name]
                if mean is not None:
                    oltp.append((mean, weight))
            elif mean is not None:
                olap.append((mean, weight))

    rebalances = [e for e in outcome.hub_events if e.type == "shard_rebalance"]
    limit_sets = [e.data["limits"] for e in rebalances]
    if outcome.final_cost_limits is not None:
        limit_sets.append(outcome.final_cost_limits)
    return {
        "result_digest": digest.hexdigest(),
        "attempted": intercepted + bypassed,
        "failed": failed,
        "oltp_attainment_by_run": by_run,
        "metrics": {
            "oltp_response_s": weighted_attainment(oltp),
            "olap_velocity": weighted_attainment(olap),
            "slo.attainment": weighted_attainment(attainment),
            "slo.oltp_attainment": weighted_attainment(oltp_attainment),
            "sim.queries": queries,
            "sim.events": events,
            "sim.events_per_query": ratio(events, queries),
            "sim.heap_compactions": sum(b.sim.compactions for b in bundles),
            "dbms.ps_jobs_per_query": ratio(
                sum(b.engine.cpu.completed_jobs + b.engine.disk.completed_jobs for b in bundles),
                queries,
            ),
            "dbms.overload_peak_cost": max(b.engine.overload.peak_cost for b in bundles),
            "patroller.intercepted_share": ratio(intercepted, intercepted + bypassed),
            "core.planner.intervals": intervals,
            "core.solver.evaluations_per_interval": ratio(
                sum(s.evaluations for s in solvers), intervals
            ),
            "core.solver.cache_hit_ratio": ratio(
                sum(s.cache_hits for s in solvers), sum(s.solve_calls for s in solvers)
            ),
            "obs.tracer.spans": outcome.tracer_spans,
            "obs.live.events_published": outcome.hub_published,
            "obs.live.events_dropped": outcome.hub_dropped,
            "obs.registry.samples_dropped": sum(
                b.controller.registry.samples_dropped
                for b in bundles
                if hasattr(b.controller, "registry")
            ),
            "validation.violations": violations,
            "shard.resplits": sum(1 for e in rebalances if e.data["mode"] == "interval"),
            "shard.limit_sum_error": max(
                (abs(sum(limits) - system_cost_limit) for limits in limit_sets), default=0.0
            ),
        },
    }


def host_facts(outcome, probe: Probe, begin: float, end: float, wall_s: float) -> Dict:
    """What varies with the host in one untraced repeat.

    Times are in reference units (divided by the mean of the repeat's
    host-speed samples, see calibrate.py); the median over repeats is
    what gets reported.
    """
    factor = statistics.mean(probe.speed_samples)
    cpu_s = end - begin - probe.kernel_s
    ms = 1e3 / factor
    calls = sorted(sample[0] for sample in probe.intervals)

    def stage(key: str) -> float:
        values = [sample[1][key] for sample in probe.intervals]
        return statistics.median(values) * ms if values else 0.0

    listeners = [sample[0] - sample[1]["total_s"] for sample in probe.intervals]
    return {
        "cpu_s": cpu_s,
        "cpu_wall_ratio": (end - begin) / wall_s,
        "factor": factor,
        "speed_samples": len(probe.speed_samples),
        "reference": {
            "run_s": cpu_s / factor,
            "experiments.assemble_ms": (probe.first_run_at - begin) * ms,
            "experiments.finish_ms": (end - probe.last_run_end) * ms,
            "core.planner.interval_ms_p50": percentile(calls, 50) * ms,
            "core.planner.interval_ms_p99": percentile(calls, 99) * ms,
            "core.monitor.ms_per_interval": stage("monitor_s"),
            "core.solver.ms_per_interval": stage("solver_s"),
            "core.dispatcher.install_ms_per_interval": stage("dispatcher_s"),
            "core.planner.listeners_ms_per_interval": (
                statistics.median(listeners) * ms if listeners else 0.0
            ),
            # Not a time, but not exact either: exported telemetry embeds
            # wall-clock overheads, so its size moves by a few digits.
            "metrics.export.bytes": outcome.export_bytes,
        },
    }


# ----------------------------------------------------------------------
# The traced repeat
# ----------------------------------------------------------------------
def traced_metrics(profile: cProfile.Profile, facts: Dict, run_s: float, name: str, out_dir: str):
    """Fold one cProfile run into per-layer metrics; write table + raw stats.

    Returns ``(times, counts)``: host-time metrics, and call counts that
    must repeat exactly.  A layer's ``self_us_per_query`` is its share of
    the profiled self time applied to the *untraced* reference time per
    query (``run_s``), so the layers sum to ``1e6 / sim_queries_per_s``
    and neither the profiler's slowdown nor a slow host phase is in them.
    """
    import layers

    stats = pstats.Stats(profile)
    stats.dump_stats(os.path.join(out_dir, name + ".pstats"))
    fold = layers.Fold(stats.stats, PACKAGE_DIR)
    queries = facts["sim.queries"]
    intervals = facts["core.planner.intervals"]
    scheduled = fold.calls_to("sim/engine.py", "schedule", "schedule_at")
    times = {
        "path.control_share": ratio(
            fold.cumulative_s("core/planner.py", "run_interval"), fold.total_s
        ),
        "path.observer_share": ratio(
            sum(fold.self_s[layer] for layer in layers.OBSERVER_LAYERS), fold.total_s
        ),
    }
    counts = {
        "host.py_calls_per_query": ratio(fold.total_calls, queries),
        "sim.schedule_calls_per_query": ratio(scheduled, queries),
        "sim.fired_per_scheduled": ratio(facts["sim.events"], scheduled),
        "sim.set_efficiency_per_query": ratio(
            fold.calls_to("sim/resources.py", "set_efficiency"), queries
        ),
        "core.modeling.predict_calls_per_interval": ratio(
            fold.calls_into("core/modeling/", "predict", "core.modeling"), intervals
        ),
    }
    for layer in layers.LAYERS:
        times[layer + ".self_us_per_query"] = (
            ratio(fold.self_s[layer], fold.total_s) * ratio(run_s * 1e6, queries)
        )
        counts[layer + ".calls_per_query"] = ratio(fold.calls[layer], queries)
    with open(os.path.join(out_dir, name + ".layers.json"), "w") as handle:
        json.dump(
            {
                "workload": name,
                "profiled_s": fold.total_s,
                "queries": queries,
                "self_s_by_layer": {layer: fold.self_s[layer] for layer in layers.LAYERS},
                "calls_by_layer": {layer: fold.calls[layer] for layer in layers.LAYERS},
                "table": fold.table_rows(),
            },
            handle,
            indent=1,
        )
    return times, counts


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def load_workload(args: argparse.Namespace):
    """Import the package and prepare the workload (all of it is set-up).

    Returns ``(prepared, seconds importing, seconds in total)``.
    """
    started = clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports repro: this is the import cost users pay

    import_s = clock() - started
    import repro

    if not os.path.abspath(repro.__file__).startswith(PACKAGE_DIR + os.sep):
        raise SystemExit("refusing to measure {} (expected {})".format(repro.__file__, PACKAGE_DIR))
    prepared = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    os.makedirs(args.out, exist_ok=True)
    return prepared, import_s, clock() - started


def measure_setup(args: argparse.Namespace) -> Dict:
    """``--setup-only``: time set-up once, in reference (import) seconds.

    Import + prepare + assembly up to the first ``SimulationBundle.run``.
    Kept out of the measuring child so that the import kernel's memory
    does not show in ``peak_rss_mb``.
    """
    before = calibrate.import_factor()
    prepared, import_s, prepared_s = load_workload(args)
    factor = (before + calibrate.import_factor()) / 2.0
    probe = Probe(setup_only=True)
    probe.install()
    begin = clock()
    try:
        with tempfile.TemporaryDirectory(dir=args.out) as scratch:
            prepared.run(scratch)
    except SetupDone:
        metrics = {
            "setup_s": (prepared_s + probe.first_run_at - begin) / factor,
            "host.import_s": import_s / factor,
        }
        metrics.update({name: ms / factor for name, ms in prepared.setup_ms.items()})
        return {"metrics": metrics}
    raise SystemExit("set-up probe never reached SimulationBundle.run")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args: argparse.Namespace) -> Dict:
    # The speed kernel is built first, while peak RSS is still current RSS,
    # so that its working set can be taken off the workload's peak RSS.
    rss_before = peak_rss_mb()
    probe = Probe()
    kernel_rss_mb = peak_rss_mb() - rss_before
    started = time.perf_counter()
    prepared, _, _ = load_workload(args)
    probe.install()

    def repeat(profile: Optional[cProfile.Profile] = None):
        """One repeat in a scratch directory: ``(outcome, begin, end, wall seconds)``.

        One host-speed sample is taken on either side (outside the timed
        region), the rest between slices of the run.
        """
        probe.reset()
        probe.slicing = profile is None
        gc.collect()
        with tempfile.TemporaryDirectory(dir=args.out) as scratch:
            probe.sample()
            wall = time.perf_counter()
            begin = clock()
            if profile is not None:
                profile.enable()
            try:
                outcome = prepared.run(scratch)
            finally:
                if profile is not None:
                    profile.disable()
            end = clock()
            wall_s = time.perf_counter() - wall
            probe.sample()
        return outcome, begin, end, wall_s

    # Untraced repeats: until the next one would overshoot --seconds by more
    # than it undershoots (so a run lasts --seconds on average), keeping
    # room for the traced repeat when one is asked for.
    repeats: List[Dict] = []
    exact: List[Dict] = []
    repeats_started = time.perf_counter()
    while True:
        outcome, begin, end, wall_s = repeat()
        repeats.append(host_facts(outcome, probe, begin, end, wall_s))
        exact.append(exact_facts(outcome, probe, prepared.system_cost_limit))
        del outcome
        if args.smoke:
            break
        now = time.perf_counter()
        mean = (now - repeats_started) / len(repeats)
        reserve = mean * (0.5 + (TRACE_COST_GUESS if args.trace else 0.0))
        if now - started + reserve > args.seconds:
            break

    facts = exact[0]
    metrics = dict(facts["metrics"])
    for key in repeats[0]["reference"]:
        metrics[key] = statistics.median(r["reference"][key] for r in repeats)
    run_s = metrics.pop("run_s")
    raw = [r["cpu_s"] for r in repeats]
    metrics.update(
        {
            "sim_queries_per_s": metrics["sim.queries"] / run_s,
            "core.planner.intervals_per_s": metrics["core.planner.intervals"] / run_s,
            "host.speed_factor": statistics.median(r["factor"] for r in repeats),
            "host.raw_queries_per_s": metrics["sim.queries"] / min(raw),
            "host.cpu_wall_ratio": statistics.median(r["cpu_wall_ratio"] for r in repeats),
            "run.repeats": len(repeats),
            "run.repeat_spread_pct": iqr_share([r["reference"]["run_s"] for r in repeats]) * 100.0,
        }
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "spec_digest": hashlib.sha256(
            json.dumps(prepared.spec, sort_keys=True).encode()
        ).hexdigest(),
        "result_digest": facts["result_digest"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "oltp_attainment_by_run": facts["oltp_attainment_by_run"],
        "repeats_identical": all(other == facts for other in exact[1:]),
        "repeat_cpu_s": raw,
        "repeat_speed_factor": [r["factor"] for r in repeats],
        "repeat_speed_samples": [r["speed_samples"] for r in repeats],
        "exact_metrics": sorted(facts["metrics"]),
    }

    if args.trace:
        profile = cProfile.Profile(builtins=False)
        outcome, begin, end, _ = repeat(profile)
        traced = exact_facts(outcome, probe, prepared.system_cost_limit)
        record["traced_identical"] = traced == facts
        times, counts = traced_metrics(profile, facts["metrics"], run_s, args.workload, args.out)
        metrics.update(times, **counts)
        metrics["trace.overhead_ratio"] = (
            (end - begin) / statistics.mean(probe.speed_samples) / run_s
        )
        record["exact_metrics"] = sorted(record["exact_metrics"] + list(counts))

    # With --trace 1 this includes the profiler's own tables (it is not a
    # per-layer metric).
    metrics["peak_rss_mb"] = peak_rss_mb() - kernel_rss_mb
    record["metrics"] = metrics
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure_setup(args) if args.setup_only else measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
