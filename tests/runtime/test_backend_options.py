"""A backend's options are checked before it is built."""

import math

import pytest

from repro.config import default_config
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.runtime import make_backend
from repro.sim.rng import RandomStreams


def build(name, **options):
    return make_backend(name, default_config(seed=5), RandomStreams(5), **options)


@pytest.mark.parametrize(
    "key", ["workers", "max_statements_per_query", "lineitem_rows", "stock_rows", "districts"]
)
@pytest.mark.parametrize("value", [0, -3, 2.0, True, "4"])
def test_sqlite_counts_must_be_positive_integers(key, value):
    with pytest.raises(ConfigurationError, match="backend_options.{} must be an integer >= 1".format(key)):
        build("sqlite", **{key: value})


@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, True, "2"])
def test_sqlite_rate_must_be_finite_and_positive(value):
    with pytest.raises(ConfigurationError, match="statements_per_demand_second must be a finite"):
        build("sqlite", statements_per_demand_second=value)


def test_sqlite_db_path_must_be_a_string():
    with pytest.raises(ConfigurationError, match="backend_options.db_path must be a string"):
        build("sqlite", db_path=7)


def test_an_unknown_sqlite_option_names_the_allowed_keys():
    with pytest.raises(ConfigurationError) as caught:
        build("sqlite", worker=2)
    message = str(caught.value)
    assert "backend_options.worker" in message
    assert "districts, lineitem_rows, max_statements_per_query" in message


def test_the_sim_backend_takes_no_options():
    with pytest.raises(ConfigurationError, match=r"backend_options.worker: .*\(allowed: none\)"):
        build("sim", worker=2)


def test_the_run_path_raises_a_configuration_error():
    spec = ExperimentSpec(backend="sqlite", backend_options={"districts": 0})
    with pytest.raises(ConfigurationError, match="backend_options.districts"):
        run_spec(spec)


def test_good_sqlite_options_build_a_backend():
    _, engine = build(
        "sqlite", workers=2, lineitem_rows=50, stock_rows=20, districts=3,
        statements_per_demand_second=1.5, max_statements_per_query=10,
    )
    try:
        assert engine.statements_per_demand_second == 1.5
    finally:
        engine.close()
