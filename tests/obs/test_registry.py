"""Tests for the unified instrument registry."""

import pytest

from repro.errors import MetricsError, ReproError
from repro.obs.registry import Counter, Gauge, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_get_or_create_returns_same_instrument(self, registry):
        first = registry.counter(
            "releases_total", callback=lambda: 1, labels={"class": "class1"}
        )
        second = registry.counter(
            "releases_total", callback=lambda: 2, labels={"class": "class1"}
        )
        assert first is second
        assert second.value == 1.0  # the first registration's read stands
        other = registry.counter(
            "releases_total", callback=lambda: 3, labels={"class": "class2"}
        )
        assert other is not first

    def test_callback_counter_reads_live_state(self, registry):
        state = {"n": 0}
        counter = registry.counter("live_total", callback=lambda: state["n"])
        state["n"] = 7
        assert counter.value == 7.0

    def test_callback_counter_cannot_be_mutated(self, registry):
        counter = registry.counter("live_total", callback=lambda: 1.0)
        assert not hasattr(counter, "inc")

    def test_callback_is_required(self, registry):
        with pytest.raises(TypeError):
            registry.counter("owned_total")
        with pytest.raises(TypeError):
            registry.gauge("owned")


class TestGauges:
    def test_callback_gauge_cannot_be_set(self, registry):
        gauge = registry.gauge("queue_length", callback=lambda: 3.0)
        assert gauge.value == 3.0
        assert not hasattr(gauge, "set") and not hasattr(gauge, "inc")

    def test_non_finite_values_become_nan(self, registry):
        import math

        gauge = registry.gauge("score", callback=lambda: float("inf"))
        assert math.isnan(gauge.value)


class TestRegistry:
    def test_kind_clash_is_an_error(self, registry):
        registry.counter("thing_total", callback=lambda: 0)
        with pytest.raises(MetricsError) as err:
            registry.gauge("thing_total", callback=lambda: 0)
        assert "already registered" in str(err.value)

    def test_bad_name_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.counter("bad name!", callback=lambda: 0)
        with pytest.raises(MetricsError):
            registry.counter("", callback=lambda: 0)

    def test_get_unknown_name_lists_registered(self, registry):
        registry.counter("alpha_total", callback=lambda: 0)
        registry.gauge("beta", callback=lambda: 0)
        with pytest.raises(MetricsError) as err:
            registry.get("gamma")
        message = str(err.value)
        assert "gamma" in message
        assert "alpha_total" in message and "beta" in message

    def test_get_unknown_labels_lists_members(self, registry):
        registry.counter(
            "alpha_total", callback=lambda: 0, labels={"class": "class1"}
        )
        with pytest.raises(MetricsError) as err:
            registry.get("alpha_total", {"class": "nope"})
        assert "class1" in str(err.value)

    def test_metrics_error_is_a_repro_error(self):
        assert issubclass(MetricsError, ReproError)

    def test_len_and_iter(self, registry):
        registry.counter("a_total", callback=lambda: 0, labels={"class": "class1"})
        registry.counter("a_total", callback=lambda: 0, labels={"class": "class2"})
        registry.gauge("b", callback=lambda: 0)
        assert len(registry) == 3
        assert registry.names == ["a_total", "b"]
        kinds = [instrument.kind for instrument in registry]
        assert kinds == ["counter", "counter", "gauge"]

    def test_instrument_types(self, registry):
        assert isinstance(registry.counter("c_total", callback=lambda: 0), Counter)
        assert isinstance(registry.gauge("g", callback=lambda: 0), Gauge)


class TestPrometheusExport:
    def test_renders_types_labels_and_values(self, registry):
        registry.counter(
            "released_total", description="queries released",
            labels={"class": "class1"}, callback=lambda: 5,
        )
        registry.gauge("queue_length", callback=lambda: 2.0)
        text = registry.to_prometheus()
        assert "# HELP released_total queries released" in text
        assert "# TYPE released_total counter" in text
        assert 'released_total{class="class1"} 5.0' in text
        assert "# TYPE queue_length gauge" in text
        assert "queue_length 2.0" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.to_prometheus() == ""


def _smoke_spec():
    from repro.config import (
        MonitorConfig,
        PlannerConfig,
        WorkloadScaleConfig,
        default_config,
    )
    from repro.experiments.runner import ExperimentSpec

    config = default_config(
        seed=7,
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    return ExperimentSpec(controller="qs", config=config)


class TestLiveWiring:
    """The assembled controller registers real instruments."""

    @pytest.fixture(scope="class")
    def qs_result(self):
        from repro.experiments.runner import run_spec

        return run_spec(_smoke_spec())

    def test_components_register_instruments(self, qs_result):
        registry = qs_result.extras["metrics_registry"]
        names = set(registry.names)
        assert {
            "dispatcher_enqueued_total",
            "dispatcher_released_total",
            "dispatcher_completed_total",
            "dispatcher_queue_length",
            "monitor_open_queries",
            "monitor_snapshots_total",
            "planner_intervals_total",
            "solver_solve_calls_total",
            "patroller_intercepted_total",
        } <= names

    def test_registry_counters_match_dispatcher_accessors(self, qs_result):
        dispatcher = qs_result.bundle.controller.dispatcher
        registry = qs_result.extras["metrics_registry"]
        for service_class in qs_result.classes:
            if not service_class.directly_controlled:
                continue
            labels = {"class": service_class.name}
            released = registry.get("dispatcher_released_total", labels)
            assert released.value == dispatcher.released_count(service_class.name)
            completed = registry.get("dispatcher_completed_total", labels)
            assert completed.value == dispatcher.completed_count(service_class.name)

    def test_second_registry_reads_the_same_values(self, qs_result):
        first = qs_result.extras["metrics_registry"]
        second = MetricsRegistry()
        dispatcher = qs_result.bundle.controller.dispatcher
        dispatcher.register_instruments(second)
        dispatcher.register_instruments(second)  # get-or-create: no clash
        mirrored = [i for i in first if i.name.startswith("dispatcher_")]
        assert len(mirrored) == len(second) == 8 * len(qs_result.classes)
        for instrument in mirrored:
            twin = second.get(instrument.name, dict(instrument.labels))
            assert twin.kind == instrument.kind
            assert twin.value == instrument.value
        assert any(i.value > 0 for i in second)

    def test_prometheus_snapshot_of_live_run(self, qs_result):
        registry = qs_result.extras["metrics_registry"]
        text = registry.to_prometheus()
        assert "# TYPE dispatcher_released_total counter" in text
        assert 'class="class1"' in text


class TestLabelEscaping:
    """Prometheus exposition escaping (satellite: hostile label values)."""

    def test_hostile_label_value_is_escaped(self, registry):
        hostile = 'he said "hi"\nback\\slash'
        registry.counter(
            "queries_total", labels={"template": hostile},
            description="Queries", callback=lambda: 1,
        )
        text = registry.to_prometheus()
        line = next(l for l in text.splitlines() if l.startswith("queries_total"))
        assert line == (
            'queries_total{template="he said \\"hi\\"\\nback\\\\slash"} 1.0'
        )
        # The rendered line must stay a single physical line.
        assert "\n" not in line

    def test_escaping_keeps_exposition_parseable(self, registry):
        registry.counter(
            "a_total", labels={"v": 'x"y'}, description="A", callback=lambda: 1
        )
        registry.counter(
            "a_total", labels={"v": "plain"}, description="A", callback=lambda: 2
        )
        lines = registry.to_prometheus().splitlines()
        # One HELP, one TYPE, two member lines — nothing smuggled in.
        assert sum(1 for l in lines if l.startswith("#")) == 2
        assert sum(1 for l in lines if l.startswith("a_total")) == 2

    def test_help_text_newlines_escaped(self, registry):
        registry.counter("b_total", description="line1\nline2", callback=lambda: 1)
        text = registry.to_prometheus()
        assert "# HELP b_total line1\\nline2" in text

    def test_extra_labels_escaped_too(self, registry):
        registry.counter("c_total", description="C", callback=lambda: 1)
        text = registry.to_prometheus(extra_labels={"shard": '0"evil'})
        assert 'c_total{shard="0\\"evil"} 1.0' in text


def _fixture(name):
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path) as handle:
        return handle.read()


class TestExpositionFixture:
    """``/metrics`` byte for byte against captured text (seed 7, 2 x 20 s
    periods): same families, kinds, HELP lines, labels and values.  The
    fixtures predate ``Dispatcher.register_instruments``, so they also pin
    that moving a component's numbers behind callbacks renders the same."""

    def test_unsharded_qs_run(self):
        from repro.experiments.runner import run_spec
        from repro.obs.live import TelemetryHub

        hub = TelemetryHub()
        result = run_spec(_smoke_spec(), hub=hub)
        expected = _fixture("metrics_qs.prom")
        assert hub.prometheus() == expected
        assert result.extras["metrics_registry"].to_prometheus() == expected

    def test_two_shard_fleet_through_the_hub(self):
        from repro.obs.live import TelemetryHub
        from repro.shard.coordinator import run_sharded
        from repro.shard.spec import ShardedExperimentSpec

        hub = TelemetryHub()
        spec = ShardedExperimentSpec(
            base=_smoke_spec(), shards=2, rebalance="interval"
        )
        run_sharded(spec, jobs=1, hub=hub)
        assert hub.prometheus() == _fixture("metrics_fleet2.prom")


class TestDispatcherInstruments:
    def test_reads_are_live(self):
        from tests.core.test_dispatcher import make_query, make_world

        sim, engine, patroller, dispatcher = make_world()
        registry = MetricsRegistry()
        dispatcher.register_instruments(registry)
        released = registry.get("dispatcher_released_total", {"class": "class1"})
        in_flight = registry.get("dispatcher_in_flight_cost", {"class": "class1"})
        assert (released.value, in_flight.value) == (0.0, 0.0)
        patroller.submit(make_query(4_000.0))
        sim.run_until(0.1)
        assert (released.value, in_flight.value) == (1.0, 4_000.0)
        assert 'dispatcher_released_total{class="class1"} 1.0' in (
            registry.to_prometheus()
        )
