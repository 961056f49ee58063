"""Tests for the per-period metrics collector."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query
from repro.metrics import collector as collector_module
from repro.metrics.collector import METRIC_NAMES, MetricsCollector
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.schedule import constant_schedule
from tests.conftest import decision_record
from tests.metrics.reference_cell import EagerCell, EagerCollector


def make_collector(period=10.0, periods=3, collector_type=MetricsCollector):
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(31))
    patroller = QueryPatroller(sim, engine)
    classes = list(paper_classes())
    schedule = constant_schedule(period, periods, {c.name: 1 for c in classes})
    collector = collector_type(patroller, schedule, classes)
    return sim, engine, classes, collector


_qid = [5000]


def completed_query(class_name, kind, submit, release, finish):
    _qid[0] += 1
    query = Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c",
        template="t",
        kind=kind,
        phases=((CPU, 0.1),),
        true_cost=10.0,
        estimated_cost=10.0,
    )
    query.submit_time = submit
    query.release_time = release
    query.finish_time = finish
    return query


def test_completions_bucketed_by_finish_period():
    sim, engine, classes, collector = make_collector(period=10.0, periods=3)
    collector.on_completion(completed_query("class1", "olap", 0.0, 2.0, 4.0))
    collector.on_completion(completed_query("class1", "olap", 0.0, 5.0, 15.0))
    assert collector.cell(0, "class1").completions == 1
    assert collector.cell(1, "class1").completions == 1
    assert collector.cell(2, "class1") is None
    assert collector.total_completions == 2


def test_velocity_series():
    sim, engine, classes, collector = make_collector()
    # velocity = (4-2)/(4-0) = 0.5 in period 0
    collector.on_completion(completed_query("class1", "olap", 0.0, 2.0, 4.0))
    series = collector.metric_series("class1", "velocity")
    assert series[0] == pytest.approx(0.5)
    assert series[1] is None


def test_response_time_series_and_throughput():
    sim, engine, classes, collector = make_collector(period=10.0)
    for finish in (1.0, 2.0, 3.0, 4.0):
        collector.on_completion(
            completed_query("class3", "oltp", finish - 0.5, finish - 0.5, finish)
        )
    series = collector.metric_series("class3", "response_time")
    assert series[0] == pytest.approx(0.5)
    throughput = collector.metric_series("class3", "throughput")
    assert throughput[0] == pytest.approx(0.4)


def test_performance_series_picks_goal_metric():
    sim, engine, classes, collector = make_collector()
    collector.on_completion(completed_query("class1", "olap", 0.0, 2.5, 5.0))
    collector.on_completion(completed_query("class3", "oltp", 0.0, 0.0, 0.2))
    class1 = next(c for c in classes if c.name == "class1")
    class3 = next(c for c in classes if c.name == "class3")
    assert collector.performance_series(class1)[0] == pytest.approx(0.5)
    assert collector.performance_series(class3)[0] == pytest.approx(0.2)


def test_goal_attainment_ignores_empty_periods():
    sim, engine, classes, collector = make_collector(period=10.0, periods=3)
    class3 = next(c for c in classes if c.name == "class3")
    # Period 0 meets (0.2 <= 0.25), period 2 misses (0.4); period 1 empty.
    collector.on_completion(completed_query("class3", "oltp", 0.0, 0.0, 0.2))
    collector.on_completion(completed_query("class3", "oltp", 25.0, 25.0, 25.4))
    assert collector.goal_attainment(class3) == pytest.approx(0.5)


def test_goal_attainment_zero_when_no_data():
    sim, engine, classes, collector = make_collector()
    assert collector.goal_attainment(classes[0]) == 0.0


def recomputed_attainment(collector, service_class):
    """Goal attainment from scratch: a walk over the whole period series."""
    observed = [v for v in collector.performance_series(service_class) if v is not None]
    if not observed:
        return 0.0
    return sum(service_class.goal.satisfied(v) for v in observed) / len(observed)


def recomputed_completions(collector):
    """Per-class completion totals from a walk over every cell."""
    totals = {c.name: 0 for c in collector.classes}
    for (_, class_name), cell in collector._cells.items():
        totals[class_name] += cell.completions
    return totals


def test_running_tallies_match_a_fresh_recompute_between_completions():
    """The collector keeps closed-period goal tallies and per-class
    completion totals as completions land; asked between any two
    completions — also after a straggler lands in a period that had
    already closed, which must drop the kept tallies — they equal a walk
    over all cells."""
    rng = random.Random(16)
    sim, engine, classes, collector = make_collector(period=10.0, periods=6)
    clock = 0.0
    stragglers = 0
    for step in range(400):
        clock += rng.uniform(0.0, 0.3)
        # Mostly in order; now and then a completion stamped well before
        # the open period (wall-clock backends deliver those).
        finish = clock
        if rng.random() < 0.1 and clock > 15.0:
            finish = clock - rng.uniform(10.0, 15.0)
            stragglers += 1
        service_class = rng.choice(classes)
        if service_class.kind == "olap":
            response = rng.uniform(0.5, 4.0)
            executing = response * rng.uniform(0.1, 1.0)
        else:
            response = executing = rng.uniform(0.05, 0.6)
        collector.on_completion(
            completed_query(
                service_class.name,
                service_class.kind,
                finish - response,
                finish - executing,
                finish,
            )
        )
        if step % 3 == 0:  # not after every completion: tallies must survive gaps
            for candidate in classes:
                assert collector.goal_attainment(candidate) == recomputed_attainment(
                    collector, candidate
                )
            assert collector.completions_by_class() == recomputed_completions(collector)
    assert stragglers > 5 and clock > 50.0  # closed periods were reopened, all six seen
    assert sum(collector.completions_by_class().values()) == 400


def test_straggler_in_a_closed_period_changes_the_attainment_already_reported():
    sim, engine, classes, collector = make_collector(period=10.0, periods=3)
    class3 = next(c for c in classes if c.name == "class3")
    collector.on_completion(completed_query("class3", "oltp", 1.0, 1.0, 1.2))  # meets
    collector.on_completion(completed_query("class3", "oltp", 12.0, 12.0, 12.2))  # meets
    assert collector.goal_attainment(class3) == 1.0  # period 0's tally is now kept
    # A slow statement stamped back in period 0 pulls that period's mean
    # (0.2, 5.0) over the 0.25 s goal.
    collector.on_completion(completed_query("class3", "oltp", 3.0, 3.0, 8.0))
    assert collector.goal_attainment(class3) == 0.5
    # ... and the later period stays the open one.
    collector.on_completion(completed_query("class3", "oltp", 13.0, 13.0, 18.0))
    assert collector.goal_attainment(class3) == 0.0


def test_plan_series_and_period_means():
    sim, engine, classes, collector = make_collector(period=10.0, periods=3)
    for time, limit in ((1.0, 10_000.0), (6.0, 14_000.0), (11.0, 20_000.0)):
        plan = SchedulingPlan(
            {"class1": limit, "class2": 1_000.0, "class3": 1_000.0}, 30_000.0,
            created_at=time,
        )
        collector.on_plan(decision_record(time, plan))
    series = collector.plan_series("class1")
    assert [limit for _, limit in series] == [10_000.0, 14_000.0, 20_000.0]
    means = collector.plan_period_means("class1")
    assert means[0] == pytest.approx(12_000.0)
    assert means[1] == pytest.approx(20_000.0)
    assert means[2] is None


def test_engine_completions_flow_in_automatically():
    sim, engine, classes, collector = make_collector()
    query = completed_query("class1", "olap", 0.0, 0.0, 0.0)
    query.finish_time = None
    query.state = query.state  # untouched; execute for real:
    fresh = Query(
        query_id=99999,
        class_name="class1",
        client_id="c",
        template="t",
        kind="olap",
        phases=((CPU, 1.0),),
        true_cost=10.0,
        estimated_cost=10.0,
    )
    fresh.submit_time = 0.0
    engine.execute(fresh)
    sim.run()
    assert collector.total_completions == 1


class TestTailLatency:
    def _collector_with_rts(self, rts):
        sim, engine, classes, collector = make_collector(period=100.0, periods=1)
        for rt in rts:
            collector.on_completion(
                completed_query("class3", "oltp", 0.0, 0.0, rt)
            )
        return collector

    def test_p95_above_mean_for_skewed_latencies(self):
        rts = [0.1] * 95 + [2.0] * 5
        collector = self._collector_with_rts(rts)
        mean = collector.metric_series("class3", "response_time")[0]
        p95 = collector.metric_series("class3", "response_p95")[0]
        p99 = collector.metric_series("class3", "response_p99")[0]
        assert mean == pytest.approx(0.195, abs=0.01)
        assert p95 > mean
        assert p99 >= p95

    def test_percentiles_none_for_empty_period(self):
        collector = self._collector_with_rts([])
        assert collector.metric_series("class3", "response_p95") == [None]

    def test_cell_percentile_direct(self):
        collector = self._collector_with_rts([1.0] * 10)
        cell = collector.cell(0, "class3")
        assert cell.response_percentile(50.0) == pytest.approx(1.0, abs=0.5)


def test_metric_series_unknown_metric_is_a_clear_error():
    from repro.errors import MetricsError
    from repro.metrics.collector import METRIC_NAMES

    sim, engine, classes, collector = make_collector()
    with pytest.raises(MetricsError) as err:
        collector.metric_series("class1", "latency")
    message = str(err.value)
    assert "latency" in message
    for name in METRIC_NAMES:
        assert name in message


def test_metric_names_constant_matches_dispatch():
    from repro.metrics.collector import METRIC_NAMES

    sim, engine, classes, collector = make_collector()
    collector.on_completion(completed_query("class1", "olap", 0.0, 2.0, 4.0))
    for name in METRIC_NAMES:
        series = collector.metric_series("class1", name)
        assert len(series) == 3  # one slot per period, no exceptions


def test_velocity_is_clamped_as_query_velocity_clamps_it():
    # r == 0, e > r (released before it was submitted), a NaN execution
    # time, and an ordinary 0.5.
    cases = [(3.0, 3.0, 3.0), (2.0, 1.0, 4.0), (0.0, float("nan"), 4.0), (0.0, 2.0, 4.0)]
    queries = [completed_query("class1", "olap", *case) for case in cases]
    assert [query.velocity for query in queries] == [1.0, 1.0, 1.0, 0.5]
    cell, eager = collector_module.PeriodClassMetrics(), EagerCell()
    for query in queries:
        cell.add(query)
        eager.add(query)
    assert cell.velocity == eager.velocity == 0.875
    assert cell.response_time == eager.response_time == 2.5


# ----------------------------------------------------------------------
# Folded is eager: the block-folding cells against the reference collector
# ----------------------------------------------------------------------
def everything_reported(collector, classes):
    histograms = {
        c.name: collector.class_response_histogram(c.name) for c in classes
    }
    return {
        "series": {
            (c.name, metric): collector.metric_series(c.name, metric)
            for c in classes
            for metric in METRIC_NAMES
        },
        "attainment": [collector.goal_attainment(c) for c in classes],
        "histograms": {n: h and h.to_dict() for n, h in histograms.items()},
        "completions": collector.completions_by_class(),
        "total": collector.total_completions,
    }


def assert_blocks_are_bounded(collector):
    block = 2 * collector_module._FOLD_BLOCK  # response, execution per completion
    for (period, _), cell in collector._cells.items():
        assert len(cell._pending) < block
        assert len(cell._pending) == 2 * (cell.completions - cell._folded_count)
        if period < collector._open_period:
            assert len(cell._pending) == 0  # a closed period holds nothing back


def feed_both(completions, read_at, period, periods):
    """Feed two collectors the same completions; compare at the read points."""
    _, _, classes, folding = make_collector(period, periods)
    _, _, _, eager = make_collector(period, periods, collector_type=EagerCollector)
    clock = 0.0
    for step, (class_index, advance, response, running, lateness) in enumerate(completions):
        clock += advance
        finish = max(0.0, clock - lateness)  # lateness > 0: a straggler
        service_class = classes[class_index]
        execution = response * running if service_class.kind == "olap" else response
        for collector in (folding, eager):
            collector.on_completion(
                completed_query(
                    service_class.name,
                    service_class.kind,
                    finish - response,
                    finish - execution,
                    finish,
                )
            )
        assert_blocks_are_bounded(folding)
        if step in read_at:
            assert everything_reported(folding, classes) == everything_reported(eager, classes)
    assert everything_reported(folding, classes) == everything_reported(eager, classes)
    return folding


completion = st.tuples(
    st.integers(0, 2),  # class
    st.floats(0.0, 3.0),  # clock advance
    st.floats(0.0, 700.0),  # response time (past the histogram range too)
    st.floats(0.0, 1.0),  # share of it spent executing (OLAP)
    st.sampled_from([0.0] * 9 + [12.0]),  # one in ten lands in an earlier period
)


@settings(max_examples=60, deadline=None)
@given(
    completions=st.lists(completion, min_size=1, max_size=80),
    read_at=st.sets(st.integers(0, 79), max_size=6),
)
def test_block_folding_reports_what_eager_folding_reports(completions, read_at):
    block = collector_module._FOLD_BLOCK
    collector_module._FOLD_BLOCK = 4  # many blocks per cell from short lists
    try:
        feed_both(completions, read_at, period=10.0, periods=5)
    finally:
        collector_module._FOLD_BLOCK = block


def test_block_folding_at_the_real_block_size():
    rng = random.Random(20)
    completions = [
        (
            rng.choice([0, 1, 2, 2, 2, 2]),
            rng.uniform(0.0, 0.05),
            rng.uniform(0.01, 5.0),
            rng.uniform(0.1, 1.0),
            12.0 if rng.random() < 0.02 else 0.0,
        )
        for _ in range(4000)
    ]
    read_at = set(rng.sample(range(4000), 25))
    folding = feed_both(completions, read_at, period=40.0, periods=3)
    busiest = max(cell.completions for cell in folding._cells.values())
    assert busiest >= 3 * collector_module._FOLD_BLOCK
    assert len({period for period, _ in folding._cells}) == 3
