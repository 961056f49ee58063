"""Tests for workload templates and the query factory."""

import pytest

from repro.config import OptimizerConfig
from repro.dbms.optimizer import CostEstimator
from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams
from repro.workloads.spec import QueryFactory, QueryTemplate, WorkloadMix


def template(name="t1", **kwargs):
    defaults = dict(kind="olap", cpu_demand=2.0, io_demand=4.0, rounds=2,
                    weight=1.0, variability=0.0)
    defaults.update(kwargs)
    return QueryTemplate(name=name, **defaults)


def make_factory(noise=0.0):
    estimator = CostEstimator(OptimizerConfig(noise_sigma=noise), RandomStreams(7))
    return QueryFactory(estimator, RandomStreams(7)), estimator


class TestTemplateValidation:
    def test_valid_template(self):
        template().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="weird"),
            dict(cpu_demand=-1.0),
            dict(cpu_demand=0.0, io_demand=0.0),
            dict(rounds=0),
            dict(weight=0.0),
            dict(variability=-0.5),
            dict(parallelism=0),
        ],
    )
    def test_invalid_templates(self, kwargs):
        with pytest.raises(WorkloadError):
            template(**kwargs).validate()


class TestWorkloadMix:
    def test_lookup_by_name(self):
        mix = WorkloadMix("m", [template("a"), template("b")])
        assert mix.template("a").name == "a"
        assert len(mix) == 2

    def test_unknown_template_rejected(self):
        mix = WorkloadMix("m", [template("a")])
        with pytest.raises(WorkloadError):
            mix.template("zzz")

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix("m", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix("m", [template("a"), template("a")])

    def test_mean_true_cost_weighted(self):
        _, estimator = make_factory()
        cheap = template("cheap", cpu_demand=1.0, io_demand=1.0, weight=3.0)
        costly = template("costly", cpu_demand=10.0, io_demand=10.0, weight=1.0)
        mix = WorkloadMix("m", [cheap, costly])
        expected = (
            3 * estimator.true_cost(1.0, 1.0) + estimator.true_cost(10.0, 10.0)
        ) / 4
        assert mix.mean_true_cost(estimator) == pytest.approx(expected)


class TestQueryFactory:
    def test_creates_query_with_correct_shape(self):
        factory, estimator = make_factory()
        mix = WorkloadMix("m", [template("t1", rounds=2)])
        query = factory.create(mix, "class1", "client-0")
        assert query.class_name == "class1"
        assert query.client_id == "client-0"
        assert query.template == "t1"
        assert query.kind == "olap"
        assert len(query.phases) == 4  # 2 rounds x (cpu, io)
        assert query.cpu_demand == pytest.approx(2.0)
        assert query.io_demand == pytest.approx(4.0)
        assert query.true_cost == pytest.approx(estimator.true_cost(2.0, 4.0))

    def test_zero_noise_estimate_equals_true_cost(self):
        factory, _ = make_factory(noise=0.0)
        mix = WorkloadMix("m", [template()])
        query = factory.create(mix, "c", "cl")
        assert query.estimated_cost == pytest.approx(query.true_cost)

    def test_ids_are_unique_and_monotone(self):
        factory, _ = make_factory()
        mix = WorkloadMix("m", [template()])
        ids = [factory.create(mix, "c", "cl").query_id for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10
        assert factory.queries_created == 10

    def test_explicit_template_selection(self):
        factory, _ = make_factory()
        mix = WorkloadMix("m", [template("a"), template("b")])
        query = factory.create(mix, "c", "cl", template_name="b")
        assert query.template == "b"

    def test_weighted_selection(self):
        factory, _ = make_factory()
        heavy = template("heavy", weight=9.0)
        rare = template("rare", weight=1.0)
        mix = WorkloadMix("m", [heavy, rare])
        names = [factory.create(mix, "c", "cl").template for _ in range(800)]
        share = names.count("heavy") / len(names)
        assert 0.85 < share < 0.95

    def test_variability_perturbs_demands(self):
        factory, _ = make_factory()
        mix = WorkloadMix("m", [template("v", variability=0.5)])
        demands = {factory.create(mix, "c", "cl").cpu_demand for _ in range(20)}
        assert len(demands) == 20

    def test_parallelism_propagates(self):
        factory, _ = make_factory()
        mix = WorkloadMix("m", [template("p", parallelism=3)])
        assert factory.create(mix, "c", "cl").parallelism == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("cpu_demand", float("nan")),
        ("cpu_demand", float("inf")),
        ("io_demand", float("nan")),
        ("io_demand", float("inf")),
        ("weight", float("nan")),
        ("weight", float("inf")),
        ("variability", float("nan")),
        ("variability", float("inf")),
    ],
)
def test_template_numbers_must_be_finite(field, value):
    # A NaN weight mis-weights template picks; a NaN variability silently
    # turned demand noise off (``sigma > 0.0`` is false).
    fields = dict(name="t", kind="oltp", cpu_demand=0.1, io_demand=0.1)
    fields[field] = value
    with pytest.raises(WorkloadError, match=field):
        QueryTemplate(**fields).validate()
