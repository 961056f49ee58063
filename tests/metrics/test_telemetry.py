"""Tests for the controller telemetry subsystem."""

import dataclasses
import json
import math
import pickle
from itertools import chain

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.monitor import ClassMeasurement
from repro.core.plan import SchedulingPlan
from repro.experiments.parallel import summarize_result
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.report import prediction_error_table
from repro.metrics.telemetry import (
    ClassRows,
    ControlIntervalRecord,
    DispatcherClassTelemetry,
    PredictionTelemetry,
    SolverTelemetry,
    TelemetryStore,
)
from tests.conftest import FailingToDict, assert_export_untouched, precious_target


def _record(time=0.0, index=0, trigger="scheduled", predictions=None):
    return ControlIntervalRecord(
        time=time,
        interval_index=index,
        trigger=trigger,
        plan=SchedulingPlan({"class1": 10_000.0}, 10_000.0, created_at=time),
        measurements={
            "class1": ClassMeasurement("class1", "velocity", 0.4, 3, time - 2.5)
        },
        predictions=predictions
        or {
            "class1": PredictionTelemetry(predicted=0.5, realized=0.4, error=-0.1)
        },
        solver=SolverTelemetry(
            allocation={"class1": 10_000.0},
            objective=1.5,
            evaluations=42,
            solve_calls=index + 1,
            oltp_slope=-4.2e-6,
            oltp_observations=0,
        ),
        dispatcher={
            "class1": DispatcherClassTelemetry(
                queue_length=2,
                in_flight_cost=900.0,
                in_flight_count=1,
                released_total=5,
                completed_total=3,
                cancelled_total=1,
                released_this_interval=2,
            )
        },
    )


class TestTelemetryStore:
    def test_len_iter_and_shared_backing_list(self):
        assert len(TelemetryStore()) == 0
        records = [_record(time=10.0)]
        store = TelemetryStore(records)
        records.append(_record(time=20.0, index=1))  # the planner's append
        assert len(store) == 2
        assert store.records[-1] is records[-1]
        assert [r.interval_index for r in store] == [0, 1]

    def test_between(self):
        store = TelemetryStore(
            [_record(time=t, index=i) for i, t in enumerate([10.0, 20.0, 30.0])]
        )
        assert [r.time for r in store.between(15.0, 30.0)] == [20.0, 30.0]

    def test_allocation_series(self):
        store = TelemetryStore([_record(), _record(index=1)])
        assert store.allocation_series("class1") == [10_000.0, 10_000.0]
        assert store.allocation_series("unknown") == []

    def test_jsonl_roundtrip(self, tmp_path):
        store = TelemetryStore(
            [_record(time=10.0), _record(time=20.0, index=1, trigger="early")]
        )
        path = str(tmp_path / "trace.jsonl")
        store.save_jsonl(path)
        rows = TelemetryStore.load_jsonl(path)
        assert len(rows) == 2
        assert rows[0]["time"] == 10.0
        assert rows[1]["trigger"] == "early"
        assert rows[0]["solver"]["allocation"]["class1"] == 10_000.0
        assert rows[0]["dispatcher"]["class1"]["released_total"] == 5
        # A measurement is a ClassMeasurement; its staleness is derived on
        # export, and the plan is exported as the solver's allocation.
        assert rows[0]["measurements"]["class1"] == {
            "metric": "velocity",
            "value": 0.4,
            "sample_count": 3,
            "staleness": 2.5,
        }
        assert "plan" not in rows[0]

    def test_to_dict_sanitises_non_finite(self):
        record = _record(
            predictions={
                "class1": PredictionTelemetry(
                    predicted=float("nan"),
                    realized=float("inf"),
                    error=None,
                )
            }
        )
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["predictions"]["class1"]["predicted"] is None
        assert payload["predictions"]["class1"]["realized"] is None
        assert payload["predictions"]["class1"]["error"] is None

    def test_prediction_error_summary(self):
        store = TelemetryStore(
            [
                _record(),
                _record(
                    index=1,
                    predictions={
                        "class1": PredictionTelemetry(
                            predicted=0.5, realized=0.6, error=0.3
                        )
                    },
                ),
            ]
        )
        summary = store.prediction_error_summary()["class1"]
        assert summary.count == 2
        assert summary.mean_abs_error == pytest.approx(0.2)
        assert summary.mean_error == pytest.approx(0.1)
        assert summary.to_dict()["count"] == 2

    def test_prediction_errors_skips_none(self):
        store = TelemetryStore(
            [
                _record(
                    predictions={
                        "class1": PredictionTelemetry(
                            predicted=0.5, realized=None, error=None
                        )
                    }
                ),
                _record(index=1),
            ]
        )
        assert store.prediction_errors("class1") == [-0.1]

    def test_dispatcher_balance(self):
        assert TelemetryStore().dispatcher_balance() == {}
        balance = TelemetryStore([_record()]).dispatcher_balance()["class1"]
        assert balance == {
            "released": 5,
            "completed": 3,
            "cancelled": 1,
            "in_flight": 1,
            "queue_cancelled": 0,
        }


def test_format_prediction_summary():
    store = TelemetryStore([_record()])
    text = prediction_error_table(store.prediction_error_summary()).text()
    assert "prediction error" in text
    assert "class1" in text
    assert "mean abs error" in text


def test_format_prediction_summary_empty():
    assert "(no prediction telemetry)" in prediction_error_table({}).text()


@pytest.fixture(scope="module")
def qs_run():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    return run_spec(ExperimentSpec(controller="qs", config=config))


class TestLiveTelemetry:
    def test_exactly_one_record_per_control_interval(self, qs_run):
        scheduler = qs_run.bundle.controller
        store = qs_run.extras["telemetry"]
        assert len(store) == scheduler.planner.intervals_run
        assert [r.interval_index for r in store] == list(range(len(store)))
        assert all(r.trigger == "scheduled" for r in store)

    def test_store_and_planner_history_hold_the_identical_objects(self, qs_run):
        """One record, one list: the store is a view over planner.history."""
        history = qs_run.bundle.controller.planner.history
        records = qs_run.extras["telemetry"].records
        assert len(records) == len(history) > 0
        for index, record in enumerate(history):
            assert record is records[index]
        assert qs_run.extras["telemetry"] is qs_run.bundle.controller.telemetry

    def test_records_cover_all_classes(self, qs_run):
        store = qs_run.extras["telemetry"]
        names = {c.name for c in qs_run.classes}
        for record in store:
            assert set(record.dispatcher) == names
            assert set(record.solver.allocation) == names

    def test_allocation_matches_plan_and_collector_points(self, qs_run):
        store = qs_run.extras["telemetry"]
        for record in store:
            assert record.solver.allocation == record.plan.as_dict()
        for service_class in qs_run.classes:
            name = service_class.name
            assert qs_run.collector.plan_series(name) == [
                (record.time, record.plan.limit(name)) for record in store
            ]

    def test_measurements_are_the_monitors_and_export_with_staleness(self, qs_run):
        measured = 0
        for record in qs_run.extras["telemetry"]:
            exported = record.to_dict()["measurements"]
            assert set(exported) == set(record.measurements)
            for name, measurement in record.measurements.items():
                measured += 1
                assert isinstance(measurement, ClassMeasurement)
                assert measurement.class_name == name
                assert exported[name]["value"] == measurement.value
                assert exported[name]["staleness"] == (
                    record.time - measurement.measured_at
                )
                assert exported[name]["staleness"] >= 0.0
        assert measured > 0

    def test_dispatcher_balance_invariant_every_interval(self, qs_run):
        """released == completed + cancelled + in-flight at every snapshot."""
        store = qs_run.extras["telemetry"]
        for record in store:
            for name, snapshot in record.dispatcher.items():
                assert snapshot.released_total == (
                    snapshot.completed_total
                    + snapshot.cancelled_total
                    + snapshot.in_flight_count
                ), name

    def test_solver_state_recorded(self, qs_run):
        store = qs_run.extras["telemetry"]
        last = store.records[-1]
        assert last.solver.evaluations > 0
        assert last.solver.solve_calls == len(store)
        assert last.solver.objective is not None
        assert last.solver.oltp_slope < 0

    def test_predictions_and_errors_populated(self, qs_run):
        store = qs_run.extras["telemetry"]
        errors = [
            p.error
            for record in store.records[1:]
            for p in record.predictions.values()
            if p.error is not None
        ]
        assert errors, "no prediction errors recorded across intervals"
        assert all(math.isfinite(e) for e in errors)

    def test_export_includes_telemetry_block(self, qs_run):
        from repro.metrics.export import result_to_dict

        payload = result_to_dict(qs_run)
        assert payload["telemetry"]["intervals"] == len(
            qs_run.extras["telemetry"]
        )
        assert "dispatcher_balance" in payload["telemetry"]
        json.dumps(payload)  # JSON-serialisable end to end

    def test_jsonl_export_of_live_run(self, qs_run, tmp_path):
        store = qs_run.extras["telemetry"]
        path = str(tmp_path / "live.jsonl")
        store.save_jsonl(path)
        rows = TelemetryStore.load_jsonl(path)
        assert len(rows) == len(store)
        for row in rows:
            assert {"time", "interval_index", "trigger", "measurements",
                    "predictions", "solver", "dispatcher"} <= set(row)

    def test_the_planner_packs_every_class_section(self, qs_run):
        for record in qs_run.extras["telemetry"]:
            for section in (record.measurements, record.predictions, record.dispatcher):
                assert isinstance(section, ClassRows)

    def test_record_round_trips_through_pickle_and_summarize_result(self, qs_run):
        """Records cross the process boundary inside a RunSummary unchanged."""
        records = qs_run.extras["telemetry"].records
        summary = pickle.loads(pickle.dumps(summarize_result(qs_run)))
        assert len(summary.telemetry_records) == len(records) > 0
        for original, copy in zip(records, summary.telemetry_records):
            assert copy == original and copy is not original
            assert copy.plan == original.plan
            assert copy.to_dict() == original.to_dict()
        assert summary.telemetry_store().to_jsonl() == (
            qs_run.extras["telemetry"].to_jsonl()
        )


def test_deficit_allocator_yields_records_without_model_data():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=1),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=10.0, allocator="deficit"),
    )
    result = run_spec(ExperimentSpec(controller="qs", config=config))
    store = result.extras["telemetry"]
    assert len(store) > 0
    for record in store:
        assert record.predictions == {} or all(
            p.predicted is None for p in record.predictions.values()
        )
        assert record.solver.objective is None
        assert record.solver.oltp_slope is None


class TestOverheadTelemetry:
    def test_record_carries_overhead_dict(self):
        record = _record()
        assert record.overhead == {}
        payload = record.to_dict()
        assert payload["overhead"] == {}

    def test_to_dict_sanitises_overhead_values(self):
        record = _record()
        record.overhead.update({"solver_s": float("nan"), "total_s": 1.5})
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["overhead"]["solver_s"] is None
        assert payload["overhead"]["total_s"] == 1.5

    def test_overhead_summary_aggregates_records(self):
        first = _record()
        first.overhead.update({"solver_s": 1.0, "total_s": 2.0})
        second = _record(index=1)
        second.overhead.update({"solver_s": 3.0, "total_s": 4.0})
        summary = TelemetryStore([first, second]).overhead_summary()
        assert summary["solver_s"]["mean_s"] == pytest.approx(2.0)
        assert summary["solver_s"]["max_s"] == pytest.approx(3.0)
        assert summary["total_s"]["count"] == 2

    def test_live_run_records_wall_clock_overhead(self, qs_run):
        store = qs_run.extras["telemetry"]
        assert len(store) > 0
        for record in store:
            for key in ("monitor_s", "solver_s", "dispatcher_s", "total_s"):
                assert key in record.overhead
                assert record.overhead[key] >= 0.0
            assert record.overhead["total_s"] >= record.overhead["solver_s"]
            assert "overhead" in record.to_dict()
        summary = store.overhead_summary()
        assert summary["total_s"]["count"] == len(store)


class TestSaveJsonlOverwriteGuard:
    def test_refuses_existing_file_by_default(self, tmp_path):
        from repro.errors import ExportError

        store = TelemetryStore([_record(time=10.0)])
        path = tmp_path / "trace.jsonl"
        path.write_text("precious\n")
        with pytest.raises(ExportError, match="overwrite"):
            store.save_jsonl(str(path))
        assert path.read_text() == "precious\n"

    def test_overwrite_flag_replaces_file(self, tmp_path):
        store = TelemetryStore([_record(time=10.0)])
        path = tmp_path / "trace.jsonl"
        path.write_text("precious\n")
        store.save_jsonl(str(path), overwrite=True)
        rows = TelemetryStore.load_jsonl(str(path))
        assert len(rows) == 1 and rows[0]["time"] == 10.0


def _wide_record(index, classes=8):
    """A synthetic record of ``classes`` service classes (one ~4 KB line)."""
    names = ["class{}".format(n) for n in range(classes)]
    time = float(index)
    limits = {name: 1_000.0 + 7.5 * index + n for n, name in enumerate(names)}
    return ControlIntervalRecord(
        time=time,
        interval_index=index,
        trigger="early" if index % 7 == 0 else "scheduled",
        plan=SchedulingPlan(limits, sum(limits.values()), created_at=time),
        measurements={
            name: ClassMeasurement(name, "velocity", 0.4 + 0.001 * index, 3, time - 0.5)
            for name in names
        },
        predictions={
            name: PredictionTelemetry(predicted=0.5, realized=0.4, error=-0.1 / (index + 1))
            for name in names
        },
        solver=SolverTelemetry(
            allocation=limits,
            objective=1.5 + index,
            evaluations=42,
            solve_calls=index + 1,
            oltp_slope=-4.2e-6,
            oltp_observations=index,
        ),
        dispatcher={
            name: DispatcherClassTelemetry(
                queue_length=index % 5,
                in_flight_cost=900.0 + index,
                in_flight_count=1,
                released_total=5 * index,
                completed_total=3 * index,
                cancelled_total=index,
                released_this_interval=2,
            )
            for name in names
        },
        overhead={"monitor_s": 1e-4, "solver_s": 3e-4, "dispatcher_s": 1e-5, "total_s": 5e-4},
    )


class TestSaveJsonlStreams:
    def test_file_is_to_jsonl_byte_for_byte(self, tmp_path):
        store = TelemetryStore([_wide_record(index) for index in range(500)])
        path = tmp_path / "telemetry.jsonl"
        store.save_jsonl(str(path))
        assert path.read_bytes() == store.to_jsonl().encode()
        assert len(TelemetryStore.load_jsonl(str(path))) == 500

    def test_peak_memory_is_far_below_the_file_size(self, tmp_path):
        import tracemalloc

        store = TelemetryStore([_wide_record(index) for index in range(500)])
        path = tmp_path / "telemetry.jsonl"
        tracemalloc.start()
        try:
            store.save_jsonl(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One record's dict and line plus the file buffer — not the text of
        # the whole export (held twice before PR 19: >= 2x the file size).
        assert peak < path.stat().st_size / 8, (peak, path.stat().st_size)

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_record_that_fails_leaves_the_target_as_it_was(self, tmp_path, existing):
        store = TelemetryStore(
            [_wide_record(0), _wide_record(1), FailingToDict(), _wide_record(3)]
        )
        path = precious_target(tmp_path / "telemetry.jsonl", existing)
        with pytest.raises(RuntimeError, match="to_dict failed"):
            store.save_jsonl(str(path), overwrite=True)
        assert_export_untouched(path, existing)


def _packed(section, row):
    """``section`` (a dict of rows) as the planner packs it."""
    index = {name: position for position, name in enumerate(section)}
    return ClassRows(index, row, tuple(chain.from_iterable(section.values())))


class TestClassRows:
    def rows(self):
        return _wide_record(3).dispatcher, DispatcherClassTelemetry

    def test_iterates_in_class_order_with_in_and_len(self):
        plain, row = self.rows()
        packed = _packed(dict(reversed(list(plain.items()))), row)
        assert list(packed) == list(reversed(list(plain))) == list(packed.keys())
        assert len(packed) == 8 and "class3" in packed and "class8" not in packed
        assert [name for name, _ in packed.items()] == list(packed)

    def test_builds_each_row_on_access_and_equals_a_dict_of_the_rows(self):
        plain, row = self.rows()
        packed = _packed(plain, row)
        assert packed["class5"] == plain["class5"]
        assert type(packed["class5"]) is DispatcherClassTelemetry
        assert packed == plain and plain == packed
        assert packed != {**plain, "class5": plain["class5"]._replace(queue_length=99)}
        assert packed != dict(list(plain.items())[:-1])
        assert _packed({}, row) == {}

    def test_a_named_tuple_row_is_a_real_row(self):
        # Built by tuple.__new__, without the generated constructor: the
        # same type, fields, repr, _replace, pickling and rendering.
        plain, row = self.rows()
        built, expected = _packed(plain, row)["class2"], plain["class2"]
        assert type(built) is row and built._fields == row._fields
        assert repr(built) == repr(expected)
        assert built._replace(queue_length=7) == expected._replace(queue_length=7)
        assert pickle.loads(pickle.dumps(built)) == expected
        assert built.to_dict() == expected.to_dict()

    def test_an_unknown_class_is_a_key_error(self):
        packed = _packed(*self.rows())
        with pytest.raises(KeyError):
            packed["class8"]
        assert packed.get("class8") is None
        with pytest.raises(KeyError):
            _packed({}, DispatcherClassTelemetry)["class1"]

    def test_is_read_only(self):
        packed = _packed(*self.rows())
        with pytest.raises(TypeError):
            packed["class1"] = None
        with pytest.raises(AttributeError):
            packed.extra = 1

    def test_round_trips_through_pickle_equal(self):
        plain, row = self.rows()
        packed = _packed(plain, row)
        clone = pickle.loads(pickle.dumps(packed))
        assert clone == packed == plain and clone is not packed
        assert list(clone) == list(packed)

    def test_a_packed_record_renders_the_bytes_of_one_built_from_dicts(self):
        plain = _wide_record(5)
        packed = dataclasses.replace(
            plain,
            measurements=_packed(plain.measurements, ClassMeasurement),
            predictions=_packed(plain.predictions, PredictionTelemetry),
            dispatcher=_packed(plain.dispatcher, DispatcherClassTelemetry),
        )
        assert packed == plain
        assert json.dumps(packed.to_dict()) == json.dumps(plain.to_dict())
        store = TelemetryStore([packed])
        assert store.prediction_errors("class2") == [-0.1 / 6]
        assert store.dispatcher_balance() == TelemetryStore([plain]).dispatcher_balance()
