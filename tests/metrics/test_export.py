"""Tests for result export (JSON / CSV)."""

import csv
import io
import json

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.export import (
    load_result_dict,
    result_to_csv,
    result_to_dict,
    result_to_json,
    save_result,
)
from repro.workloads.schedule import constant_schedule
from tests.conftest import FailingToDict, assert_export_untouched, precious_target


@pytest.fixture(scope="module")
def small_result():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    schedule = constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 5})
    return run_spec(ExperimentSpec(controller="qs", config=config, schedule=schedule))


def test_dict_structure(small_result):
    data = result_to_dict(small_result)
    assert data["controller"] == "qs"
    assert data["num_periods"] == 2
    assert data["total_completions"] > 0
    names = [c["name"] for c in data["classes"]]
    assert names == ["class1", "class2", "class3"]
    class3 = data["classes"][2]
    assert class3["metric"] == "response_time"
    assert class3["goal"] == 0.25
    assert len(class3["per_period"]) == 2
    assert set(data["plan_period_means"]) == {"class1", "class2", "class3"}


def test_json_roundtrips(small_result):
    text = result_to_json(small_result)
    parsed = json.loads(text)
    assert parsed == result_to_dict(small_result)


def test_csv_rows(small_result):
    text = result_to_csv(small_result)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header[0] == "period"
    assert len(body) == 2 * 3  # periods x classes
    class_column = {row[1] for row in body}
    assert class_column == {"class1", "class2", "class3"}
    # meets_goal column is True/False/empty text.
    assert all(row[5] in ("True", "False", "") for row in body)


def test_save_and_load(tmp_path, small_result):
    json_path = str(tmp_path / "result.json")
    save_result(small_result, json_path)
    data = load_result_dict(json_path)
    assert data["controller"] == "qs"
    csv_path = str(tmp_path / "result.csv")
    save_result(small_result, csv_path)
    with open(csv_path) as handle:
        assert handle.readline().startswith("period,")


def test_dict_per_period_timing_series(small_result):
    data = result_to_dict(small_result)
    for block in data["classes"]:
        for key in ("wait_time_per_period", "execution_time_per_period",
                    "response_p95_per_period"):
            series = block[key]
            assert len(series) == 2
            assert all(v is None or v >= 0.0 for v in series)
    # The OLAP classes completed work, so the series carry real numbers.
    class1 = data["classes"][0]
    assert any(v is not None for v in class1["execution_time_per_period"])


def test_dict_telemetry_overhead_summary(small_result):
    data = result_to_dict(small_result)
    overhead = data["telemetry"]["overhead"]
    assert "total_s" in overhead
    assert overhead["total_s"]["count"] == data["telemetry"]["intervals"]
    assert overhead["total_s"]["max_s"] >= overhead["total_s"]["mean_s"] >= 0.0


def test_csv_timing_columns_ride_at_the_end(small_result):
    text = result_to_csv(small_result)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header[-3:] == ["wait_time", "execution_time", "response_p95"]
    for row in body:
        for cell in row[-3:]:
            if cell:
                assert float(cell) >= 0.0
    # Rows with completions have an execution time.
    populated = [row for row in body if row[-2]]
    assert populated


def test_csv_timing_columns_roundtrip_dict_values(small_result):
    data = result_to_dict(small_result)
    text = result_to_csv(small_result)
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    wait_col = header.index("wait_time")
    by_key = {(row[0], row[1]): row for row in rows[1:]}
    for block in data["classes"]:
        for period, value in enumerate(block["wait_time_per_period"]):
            cell = by_key[(str(period + 1), block["name"])][wait_col]
            if value is None:
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("existing", [False, True])
def test_failed_save_leaves_the_target_as_it_was(tmp_path, small_result, monkeypatch, existing):
    from types import SimpleNamespace

    harness = SimpleNamespace(
        mode="strict",
        checks_run=1,
        registry=SimpleNamespace(names=[]),
        violations=[FailingToDict()],
    )
    monkeypatch.setitem(small_result.extras, "validation", harness)
    path = precious_target(tmp_path / "result.json", existing)
    with pytest.raises(RuntimeError, match="to_dict failed"):
        save_result(small_result, str(path))
    assert_export_untouched(path, existing)

