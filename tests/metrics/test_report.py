"""Tests for ASCII report formatting."""

from repro.config import default_config
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query
from repro.metrics.collector import MetricsCollector
from repro.patroller.patroller import QueryPatroller
from repro.metrics.report import (
    Column,
    Table,
    attainment_table,
    period_table,
    plan_table,
    series_table,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.schedule import constant_schedule
from tests.conftest import decision_record


def make_populated_collector():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(37))
    patroller = QueryPatroller(sim, engine, config.patroller)
    classes = list(paper_classes())
    schedule = constant_schedule(10.0, 2, {c.name: 1 for c in classes})
    collector = MetricsCollector(patroller, schedule, classes)
    query = Query(
        query_id=1, class_name="class1", client_id="c", template="t", kind="olap",
        phases=((CPU, 0.1),), true_cost=1.0, estimated_cost=1.0,
    )
    query.submit_time, query.release_time, query.finish_time = 0.0, 2.0, 4.0
    collector.on_completion(query)
    oltp = Query(
        query_id=2, class_name="class3", client_id="c", template="t", kind="oltp",
        phases=((CPU, 0.1),), true_cost=1.0, estimated_cost=1.0,
    )
    oltp.submit_time, oltp.release_time, oltp.finish_time = 0.0, 0.0, 0.2
    collector.on_completion(oltp)
    plan = SchedulingPlan(
        {"class1": 9_000.0, "class2": 9_000.0, "class3": 12_000.0}, 30_000.0
    )
    collector.on_plan(decision_record(1.0, plan))
    return collector, classes


def test_period_table_shape_and_markers():
    collector, classes = make_populated_collector()
    table = period_table(collector, classes, title="Perf").text()
    lines = table.splitlines()
    assert lines[0] == "Perf"
    assert "class1" in lines[1] and "class3" in lines[1]
    assert len(lines) == 2 + 1 + 2  # title + header + rule + 2 periods
    assert "ok" in table  # both observed values meet their goals
    assert "0.500" in table  # class1 velocity
    assert "0.200" in table  # class3 response time


def test_summary_contains_attainment():
    collector, classes = make_populated_collector()
    summary = attainment_table(collector, classes, title="Summary").text()
    assert "class1" in summary
    assert "100%" in summary
    assert "attainment" in summary


def test_plan_table_reports_means():
    collector, classes = make_populated_collector()
    table = plan_table(collector, ["class1", "class2", "class3"]).text()
    assert "12000" in table.replace(" ", "")


def test_figure_series_handles_ragged_and_missing():
    text = series_table(
        {"a": [1.0, None, 3.0], "b": [2.0]},
        x_label="step",
        title="Fig",
        digits=1,
    ).text()
    lines = text.splitlines()
    assert lines[0] == "Fig"
    assert "step" in lines[1]
    assert len(lines) == 3 + 3  # title + header + rule + 3 rows
    assert lines[4].count("-") >= 2  # None slots in row 2 for both series


class TestTable:
    COLUMNS = [
        Column("class"),
        Column("mean", "{:.3f}"),
        Column("goal", "{:.2f} {:>4}"),
    ]
    ROWS = [["class1", 0.5, (0.4, "ok")], ["class3", None, (0.25, "MISS")]]

    @staticmethod
    def text_cells(text):
        return [[cell.strip() for cell in line.split(" | ")]
                for line in text.splitlines() if " | " in line]

    def test_text_shows_the_cells_in_column_order(self):
        table = Table(self.COLUMNS, self.ROWS, title="Perf")
        expected = [["class", "mean", "goal"]] + table.cells()
        assert table.cells() == [
            ["class1", "0.500", "0.40   ok"],
            ["class3", "-", "0.25 MISS"],
        ]
        assert self.text_cells(table.text()) == expected

    def test_text_layout_is_title_header_rule_rows(self):
        lines = Table(self.COLUMNS, self.ROWS, title="Perf").text().splitlines()
        assert lines[0] == "Perf"
        assert lines[1] == "class  |  mean |      goal"
        assert lines[2] == "-" * len(lines[1])
        assert lines[3] == "class1 | 0.500 | 0.40   ok"
        assert lines[4] == "class3 |     - | 0.25 MISS"
        assert len(lines) == 5

    def test_a_table_without_a_title_starts_at_its_header(self):
        table = Table(self.COLUMNS, self.ROWS)
        assert table.text().splitlines()[0].startswith("class")

    def test_an_empty_table_says_so_in_place_of_the_grid(self):
        table = Table(self.COLUMNS, [], title="Perf", empty="nothing recorded")
        assert table.cells() == []
        assert table.text() == "Perf: nothing recorded"
        assert Table(self.COLUMNS, []).text() == "(none)"


def test_period_table_reads_each_series_once():
    """One ``performance_series`` call per class, not one per period."""
    collector, classes = make_populated_collector()
    calls = []
    read = collector.performance_series

    def counting(service_class):
        calls.append(service_class.name)
        return read(service_class)

    collector.performance_series = counting
    table = period_table(collector, classes)
    assert len(table.rows) == collector.schedule.num_periods == 2
    assert calls == [c.name for c in classes]
    assert table.cells()[0] == ["1", "0.500   ok", "-", "0.200   ok"]
