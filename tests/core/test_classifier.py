"""Tests for classification: the submitter's class tag picks the service
class.  The paper's Classifier is the Query Scheduler's per-class lookup;
these tests pin what it refuses."""

import pytest

from repro.config import default_config
from repro.core.plan import SchedulingPlan
from repro.core.scheduler import QueryScheduler
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_dispatcher


def make_world():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(1))
    patroller = QueryPatroller(sim, engine)
    return sim, engine, patroller, config


def make_dispatcher():
    sim, engine, patroller, config = make_world()
    plan = SchedulingPlan(
        {"class1": 10_000.0, "class2": 10_000.0, "class3": 10_000.0}, 30_000.0
    )
    return patroller_dispatcher(patroller, list(paper_classes()), plan)


def make_query(class_name="class1", kind="olap", cost=1000.0):
    return Query(
        query_id=1,
        class_name=class_name,
        client_id="c0",
        template="t",
        kind=kind,
        phases=((CPU, 1.0),),
        true_cost=cost,
        estimated_cost=cost,
    )


def test_unknown_tag_rejected():
    dispatcher = make_dispatcher()
    with pytest.raises(SchedulingError):
        dispatcher.enqueue(make_query(class_name="marketing"))


def test_untagged_query_with_no_matching_rule_rejected():
    dispatcher = make_dispatcher()
    with pytest.raises(SchedulingError):
        dispatcher.enqueue(make_query(class_name=""))


def test_empty_classes_rejected():
    sim, engine, patroller, config = make_world()
    with pytest.raises(SchedulingError, match="at least one service class"):
        QueryScheduler(sim, engine, patroller, [], config)
