"""Tests for the Dispatcher's cost-limit release semantics."""

import pytest

from repro.config import PatrollerConfig, default_config
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query, QueryState
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_dispatcher


def make_world(limits=None):
    sim = Simulator()
    config = default_config(
        patroller=PatrollerConfig(
            interception_latency=0.0, release_latency=0.0, overhead_cpu_demand=0.0
        )
    )
    engine = DatabaseEngine(sim, config, RandomStreams(9))
    patroller = QueryPatroller(sim, engine, config.patroller)
    classes = list(paper_classes())
    for c in classes:
        if c.directly_controlled:
            patroller.enable_for_class(c.name)
    plan = SchedulingPlan(
        limits or {"class1": 10_000.0, "class2": 10_000.0, "class3": 10_000.0},
        30_000.0,
    )
    dispatcher = patroller_dispatcher(patroller, classes, plan)
    # Route interceptions straight into the dispatcher for these tests.
    patroller.set_release_handler(dispatcher.enqueue)
    return sim, engine, patroller, dispatcher


_next_id = [100]


def make_query(cost, class_name="class1", demand=5.0):
    _next_id[0] += 1
    return Query(
        query_id=_next_id[0],
        class_name=class_name,
        client_id="c",
        template="t",
        kind="olap",
        phases=((CPU, demand),),
        true_cost=cost,
        estimated_cost=cost,
    )


def test_release_within_limit():
    sim, engine, patroller, dispatcher = make_world()
    patroller.submit(make_query(4_000.0))
    patroller.submit(make_query(4_000.0))
    sim.run_until(0.1)
    assert dispatcher.class_accounting("class1").in_flight_count == 2
    assert dispatcher.class_accounting("class1").in_flight_cost == pytest.approx(8_000.0)
    assert dispatcher.class_accounting("class1").queue_length == 0


def test_queueing_past_limit():
    sim, engine, patroller, dispatcher = make_world()
    for _ in range(4):
        patroller.submit(make_query(4_000.0))
    sim.run_until(0.1)
    # 2 x 4000 fit under 10000; the 3rd would exceed.
    assert dispatcher.class_accounting("class1").in_flight_count == 2
    assert dispatcher.class_accounting("class1").queue_length == 2


def test_completion_frees_budget_fifo():
    sim, engine, patroller, dispatcher = make_world()
    for i in range(3):
        patroller.submit(make_query(6_000.0, demand=float(i + 1)))
    sim.run()
    assert dispatcher.class_accounting("class1").released == 3
    assert dispatcher.class_accounting("class1").in_flight_count == 0


def test_classes_isolated():
    sim, engine, patroller, dispatcher = make_world()
    patroller.submit(make_query(9_000.0, class_name="class1"))
    patroller.submit(make_query(9_000.0, class_name="class2"))
    patroller.submit(make_query(9_000.0, class_name="class2"))
    sim.run_until(0.1)
    assert dispatcher.class_accounting("class1").in_flight_count == 1
    assert dispatcher.class_accounting("class2").in_flight_count == 1
    assert dispatcher.class_accounting("class2").queue_length == 1


def test_starvation_guard_releases_oversized_query_alone():
    sim, engine, patroller, dispatcher = make_world()
    patroller.submit(make_query(50_000.0))  # above the whole class limit
    sim.run_until(0.1)
    assert dispatcher.class_accounting("class1").in_flight_count == 1


def test_oversized_query_waits_while_class_busy():
    sim, engine, patroller, dispatcher = make_world()
    patroller.submit(make_query(8_000.0, demand=3.0))
    patroller.submit(make_query(50_000.0, demand=3.0))
    sim.run_until(0.1)
    assert dispatcher.class_accounting("class1").in_flight_count == 1
    assert dispatcher.class_accounting("class1").queue_length == 1
    sim.run()
    assert dispatcher.class_accounting("class1").released == 2


def test_install_plan_with_higher_limit_releases_queued():
    sim, engine, patroller, dispatcher = make_world()
    for _ in range(4):
        patroller.submit(make_query(4_000.0, demand=50.0))
    sim.run_until(0.1)
    assert dispatcher.class_accounting("class1").queue_length == 2
    released = dispatcher.install_plan(
        SchedulingPlan({"class1": 20_000.0, "class2": 5_000.0, "class3": 5_000.0}, 30_000.0)
    )
    assert released == 2
    assert dispatcher.class_accounting("class1").in_flight_count == 4


def test_lowered_limit_never_revokes_in_flight():
    sim, engine, patroller, dispatcher = make_world()
    patroller.submit(make_query(8_000.0, demand=50.0))
    sim.run_until(0.1)
    dispatcher.install_plan(
        SchedulingPlan({"class1": 1_000.0, "class2": 1_000.0, "class3": 1_000.0}, 30_000.0)
    )
    assert dispatcher.class_accounting("class1").in_flight_count == 1  # still running
    patroller.submit(make_query(500.0))
    sim.run_until(0.2)
    # New query blocked: 8000 in flight > 1000 limit.
    assert dispatcher.class_accounting("class1").queue_length == 1


def test_enqueue_indirect_class_rejected():
    sim, engine, patroller, dispatcher = make_world()
    query = make_query(100.0, class_name="class3")
    with pytest.raises(SchedulingError):
        dispatcher.enqueue(query)


def test_unknown_class_rejected():
    sim, engine, patroller, dispatcher = make_world()
    with pytest.raises(SchedulingError):
        dispatcher.class_accounting("ghost").queue_length
    with pytest.raises(SchedulingError):
        dispatcher.install_plan(SchedulingPlan({"ghost": 1.0}, 30_000.0))


def test_foreign_completions_ignored():
    """Completions of queries this dispatcher never released must not
    corrupt the in-flight accounting."""
    sim, engine, patroller, dispatcher = make_world()
    foreign = make_query(1_000.0, class_name="class1", demand=0.5)
    foreign.submit_time = sim.now
    engine.execute(foreign)  # bypasses the dispatcher entirely
    sim.run()
    assert dispatcher.class_accounting("class1").in_flight_count == 0
    assert dispatcher.class_accounting("class1").in_flight_cost == 0.0


class TestQueueDisciplines:
    def _world(self, discipline):
        sim = Simulator()
        config = default_config(
            patroller=PatrollerConfig(
                interception_latency=0.0, release_latency=0.0,
                overhead_cpu_demand=0.0,
            )
        )
        engine = DatabaseEngine(sim, config, RandomStreams(9))
        patroller = QueryPatroller(sim, engine, config.patroller)
        classes = list(paper_classes())
        for c in classes:
            if c.directly_controlled:
                patroller.enable_for_class(c.name)
        plan = SchedulingPlan(
            {"class1": 5_000.0, "class2": 1_000.0, "class3": 1_000.0}, 30_000.0
        )
        dispatcher = patroller_dispatcher(patroller, classes, plan,
                                discipline=discipline)
        patroller.set_release_handler(dispatcher.enqueue)
        return sim, engine, patroller, dispatcher

    def test_unknown_discipline_rejected(self):
        with pytest.raises(SchedulingError):
            self._world("lottery")

    def test_sjf_releases_cheapest_first(self):
        sim, engine, patroller, dispatcher = self._world("sjf")
        order = []
        original = dispatcher.release
        dispatcher.release = lambda q: (order.append(q.estimated_cost), original(q))
        # A blocker occupies the class; the rest queue.
        patroller.submit(make_query(4_900.0, demand=2.0))
        patroller.submit(make_query(3_000.0, demand=0.5))
        patroller.submit(make_query(1_000.0, demand=0.5))
        patroller.submit(make_query(2_000.0, demand=0.5))
        sim.run()
        assert order[0] == 4_900.0
        assert order[1:] == [1_000.0, 2_000.0, 3_000.0]

    def test_fifo_preserves_arrival_order(self):
        sim, engine, patroller, dispatcher = self._world("fifo")
        order = []
        original = dispatcher.release
        dispatcher.release = lambda q: (order.append(q.estimated_cost), original(q))
        patroller.submit(make_query(4_900.0, demand=2.0))
        patroller.submit(make_query(3_000.0, demand=0.5))
        patroller.submit(make_query(1_000.0, demand=0.5))
        sim.run()
        assert order == [4_900.0, 3_000.0, 1_000.0]

    def test_aging_lets_old_monster_pass_young_mice(self):
        sim, engine, patroller, dispatcher = self._world("aging")
        order = []
        original = dispatcher.release
        dispatcher.release = lambda q: (order.append(q.template), original(q))
        blocker = make_query(4_900.0, demand=50.0)
        blocker.template = "blocker"
        patroller.submit(blocker)
        old_big = make_query(3_000.0, demand=0.5)
        old_big.template = "old_big"
        patroller.submit(old_big)
        sim.run_until(45.0)

        def submit_young():
            young = make_query(1_000.0, demand=0.5)
            young.template = "young_small"
            patroller.submit(young)

        sim.schedule(0.1, submit_young)
        sim.run()
        # When the blocker finishes (t~50) old_big has waited ~45s longer
        # than young: aged costs 3000-50*50=500 vs 1000-50*5=750, so the
        # old monster goes first.  Under SJF it would starve behind every
        # young mouse.
        assert order[0] == "blocker"
        assert order[1] == "old_big"

    def test_aging_scans_past_unfitting_head(self):
        """Regression: when the min-aged-cost query does not fit, the aging
        discipline must try the remaining candidates instead of stalling the
        whole class behind it (head-of-line blocking)."""
        sim, engine, patroller, dispatcher = self._world("aging")
        order = []
        original = dispatcher.release
        dispatcher.release = lambda q: (order.append(q.template), original(q))
        blocker = make_query(4_000.0, demand=200.0)  # runs past the test
        blocker.template = "blocker"
        patroller.submit(blocker)
        old_big = make_query(3_000.0, demand=0.5)  # 4000+3000 > 5000: no fit
        old_big.template = "old_big"
        patroller.submit(old_big)
        sim.run_until(45.0)
        young = make_query(800.0, demand=0.5)  # 4000+800 <= 5000: fits
        young.template = "young_small"
        patroller.submit(young)
        sim.run_until(46.0)
        # old_big's aged cost (3000 - 50*45 = 750) beats young's (800), so
        # it is selected first — but it cannot fit while the blocker runs.
        # Pre-fix, the release loop broke there and young never released.
        assert order == ["blocker", "young_small"]
        assert dispatcher.class_accounting("class1").queue_length == 1

    def test_fifo_head_of_line_still_blocks(self):
        """FIFO semantics unchanged: a later query that would fit must not
        jump an unfitting head-of-line query."""
        sim, engine, patroller, dispatcher = self._world("fifo")
        patroller.submit(make_query(4_000.0, demand=200.0))
        patroller.submit(make_query(3_000.0, demand=0.5))
        patroller.submit(make_query(800.0, demand=0.5))
        sim.run_until(1.0)
        assert dispatcher.class_accounting("class1").in_flight_count == 1
        assert dispatcher.class_accounting("class1").queue_length == 2


class TestQueueCancellationAccounting:
    def test_cancelled_queued_query_counts(self):
        sim, engine, patroller, dispatcher = make_world()
        patroller.submit(make_query(9_000.0, demand=100.0))
        victim = make_query(5_000.0)
        patroller.submit(victim)
        sim.run_until(0.1)
        assert dispatcher.class_accounting("class1").queue_length == 1
        assert patroller.cancel(victim)
        assert dispatcher.class_accounting("class1").queue_length == 0
        assert dispatcher.class_accounting("class1").queue_cancelled == 1
        # A queue-level cancel never consumed in-flight budget, so it must
        # not count as a post-release cancellation.
        assert dispatcher.class_accounting("class1").cancelled == 0
        assert dispatcher.class_accounting("class1").enqueued == (
            dispatcher.class_accounting("class1").queue_length
            + dispatcher.class_accounting("class1").queue_cancelled
            + dispatcher.class_accounting("class1").released
        )

    def test_lazy_purge_counts_unwired_cancellations(self):
        """Tombstones purged at release time (a cancellation path that never
        fired the listener) must be counted too, not silently dropped."""
        sim, engine, patroller, dispatcher = make_world()
        patroller.submit(make_query(9_000.0, demand=100.0))
        victim = make_query(5_000.0)
        patroller.submit(victim)
        sim.run_until(0.1)
        victim.state = QueryState.CANCELLED  # no listener notification
        dispatcher.install_plan(
            SchedulingPlan(
                {"class1": 10_000.0, "class2": 10_000.0, "class3": 10_000.0},
                30_000.0,
            )
        )
        assert dispatcher.class_accounting("class1").queue_length == 0
        assert dispatcher.class_accounting("class1").queue_cancelled == 1

    def test_enqueued_count_tracks_every_enqueue(self):
        sim, engine, patroller, dispatcher = make_world()
        for _ in range(4):
            patroller.submit(make_query(4_000.0, demand=50.0))
        sim.run_until(0.1)
        assert dispatcher.class_accounting("class1").enqueued == 4
        assert dispatcher.class_accounting("class2").enqueued == 0
