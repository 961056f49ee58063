"""Tests for the parallel experiment execution layer.

Pins the three contracts that make ``jobs=`` safe to use everywhere:
requests and summaries pickle cleanly, worker count never changes results
(bitwise), and one crashed run never kills the batch.
"""

import pickle

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    RunRequest,
    execute_request,
    resolve_jobs,
    run_requests,
)
from repro.experiments.replication import compare, replicate
from repro.experiments.runner import ExperimentSpec
from repro.workloads.schedule import constant_schedule


def tiny_config(seed=7):
    return default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )


def tiny_schedule():
    return constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 6})


def tiny_request(controller="none", seed=7, label=None):
    return RunRequest(
        spec=ExperimentSpec(
            controller=controller,
            config=tiny_config(seed),
            schedule=tiny_schedule(),
        ),
        label=label,
    )


class TestRunRequest:
    def test_roundtrips_through_pickle(self):
        request = tiny_request(label="x")
        clone = pickle.loads(pickle.dumps(request))
        assert clone.spec.controller == request.spec.controller
        assert clone.spec.config == request.spec.config
        assert clone.spec.schedule.counts == request.spec.schedule.counts
        assert clone.label == "x"

    def test_has_exactly_the_fields_spec_and_label(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(RunRequest)] == ["spec", "label"]

    def test_describe_prefers_label_then_seed(self):
        assert tiny_request(label="lab").describe() == "lab"
        assert tiny_request(seed=3).describe() == "none:seed=3"
        assert RunRequest(ExperimentSpec(controller="qs")).describe() == "qs"
        assert RunRequest(ExperimentSpec(controller="qs")).seed is None


class TestExecuteRequest:
    def test_summary_is_slim_and_picklable(self):
        summary = execute_request(tiny_request())
        assert summary.controller == "none"
        assert summary.seed == 7
        assert summary.class_names == ("class1", "class2", "class3")
        assert set(summary.attainment) == {"class1", "class2", "class3"}
        for name in summary.class_names:
            assert len(summary.performance_series[name]) == 2  # periods
        assert summary.total_completions > 0
        assert summary.telemetry_records == ()  # no telemetry without QS
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.attainment == summary.attainment

    def test_qs_summary_carries_telemetry_and_solver_stats(self):
        summary = execute_request(tiny_request(controller="qs"))
        assert summary.telemetry_records
        assert summary.solver_stats["solve_calls"] >= 1
        assert summary.solver_stats["total_evaluations"] >= 1
        store = summary.telemetry_store()
        assert len(store) == len(summary.telemetry_records)
        assert store.records[-1].interval_index == len(store) - 1
        clone = pickle.loads(pickle.dumps(summary))
        assert len(clone.telemetry_records) == len(summary.telemetry_records)

    def test_metric_mean_matches_series(self):
        summary = execute_request(tiny_request())
        for name in summary.class_names:
            values = [
                v for v in summary.performance_series[name] if v is not None
            ]
            if values:
                assert summary.metric_mean(name) == sum(values) / len(values)


class TestRunRequests:
    def test_empty_batch(self):
        assert run_requests([], jobs=4) == []

    def test_jobs_validation(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(3) == 3
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError):
                resolve_jobs(bad)
        with pytest.raises(ConfigurationError):
            run_requests([tiny_request()], jobs=0)

    def test_serial_ordering_and_progress(self):
        requests = [tiny_request(seed=s) for s in (5, 3, 9)]
        seen = []
        outcomes = run_requests(
            requests, jobs=1,
            progress=lambda outcome, done, total: seen.append(
                (outcome.index, done, total)
            ),
        )
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.summary.seed for o in outcomes] == [5, 3, 9]
        assert seen == [(0, 1, 3), (1, 2, 3), (2, 3, 3)]

    def test_parallel_matches_serial_bitwise(self):
        requests = [tiny_request(seed=s) for s in (1, 2, 3, 4)]
        serial = run_requests(requests, jobs=1)
        parallel = run_requests(requests, jobs=4)
        assert [o.index for o in parallel] == [0, 1, 2, 3]
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok
            assert left.summary.seed == right.summary.seed
            assert left.summary.attainment == right.summary.attainment
            assert left.summary.performance_series == right.summary.performance_series
            assert left.summary.total_completions == right.summary.total_completions

    def test_parallel_progress_counts_every_run(self):
        requests = [tiny_request(seed=s) for s in (1, 2, 3)]
        seen = []
        run_requests(
            requests, jobs=2,
            progress=lambda outcome, done, total: seen.append((done, total)),
        )
        assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]

    def test_worker_failure_is_isolated(self):
        requests = [
            tiny_request(seed=1),
            tiny_request(controller="no-such-controller", seed=2),
            tiny_request(seed=3),
        ]
        outcomes = run_requests(requests, jobs=2)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].summary is None
        assert "unknown controller" in outcomes[1].error


class TestReplicationParallel:
    def test_compare_parallel_bitwise_identical_to_serial(self):
        kwargs = dict(
            seeds=[1, 2], config=tiny_config(), schedule=tiny_schedule()
        )
        serial = compare(["none", "qs"], jobs=1, **kwargs)
        parallel = compare(["none", "qs"], jobs=4, **kwargs)
        assert set(serial) == set(parallel)
        for controller in serial:
            left, right = serial[controller], parallel[controller]
            assert left.seeds == right.seeds
            assert left.errors == [] and right.errors == []
            assert set(left.per_class) == set(right.per_class)
            for name, stats in left.per_class.items():
                other = right.per_class[name]
                assert stats.attainment.count == other.attainment.count
                assert stats.attainment.mean == other.attainment.mean
                assert stats.attainment.stddev == other.attainment.stddev
                assert stats.metric_mean.mean == other.metric_mean.mean
                assert stats.metric_mean.stddev == other.metric_mean.stddev

    def test_replicate_isolates_crashed_seed(self):
        summary = replicate(
            "definitely-not-a-controller",
            seeds=[1, 2],
            config=tiny_config(),
            schedule=tiny_schedule(),
            jobs=2,
        )
        assert summary.per_class == {}
        assert [failure.seed for failure in summary.errors] == [1, 2]
        for failure in summary.errors:
            assert "unknown controller" in failure.error

    def test_compare_keeps_good_controller_despite_bad_one(self):
        summaries = compare(
            ["none", "definitely-not-a-controller"],
            seeds=[1, 2],
            config=tiny_config(),
            schedule=tiny_schedule(),
            jobs=2,
        )
        good = summaries["none"]
        bad = summaries["definitely-not-a-controller"]
        assert good.errors == []
        assert good.per_class["class3"].attainment.count == 2
        assert len(bad.errors) == 2
        assert bad.per_class == {}


class TestSpecRequests:
    """RunRequest carrying a full ExperimentSpec (the scenario path)."""

    def _spec(self, controller="qs", invariants="off"):
        return ExperimentSpec(
            controller=controller,
            config=tiny_config(),
            schedule=tiny_schedule(),
            invariants=invariants,
        )

    def test_spec_request_pickles_and_reports_its_seed(self):
        spec = self._spec()
        request = RunRequest(spec=spec, label="s")
        clone = pickle.loads(pickle.dumps(request))
        assert clone.spec.controller == "qs"
        assert request.seed == 7
        assert request.describe() == "s"

    def test_execute_request_honours_the_spec(self):
        from repro.faults import ScheduledFault

        spec = self._spec(invariants="warn").with_overrides(
            faults=(ScheduledFault(
                kind="arrival_burst", at=5.0,
                params={"class_name": "class1", "count": 2},
            ),),
        )
        request = RunRequest(spec=spec)
        summary = execute_request(request)
        assert summary.controller == "qs"
        assert summary.attainment  # the run completed and measured classes

    def test_spec_requests_parallel_match_serial_bitwise(self):
        specs = [
            self._spec().with_overrides(config=tiny_config(seed=seed))
            for seed in (7, 21)
        ]
        requests = [
            RunRequest(spec=s, label=str(i))
            for i, s in enumerate(specs)
        ]
        serial = run_requests(requests, jobs=1)
        parallel = run_requests(requests, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok
            assert a.summary.attainment == b.summary.attainment
            assert a.summary.performance_series == b.summary.performance_series
