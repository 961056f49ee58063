"""Scenario schema validation, round-trips, and compilation to ExperimentSpec."""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.faults import ScheduledFault
from repro.scenarios import (
    SCENARIO_FORMAT_VERSION,
    SMOKE_PERIOD_SECONDS,
    ClientCurve,
    ScenarioClass,
    ScenarioFault,
    ScenarioSpec,
    loads_scenario,
    scenario_from_mapping,
    scenario_to_mapping,
    scenario_to_yaml,
    to_experiment_spec,
    to_sharded_experiment_spec,
)

yaml = pytest.importorskip("yaml")


def minimal_mapping(**overrides):
    """The smallest valid scenario document, as a plain mapping."""
    mapping = {
        "scenario": SCENARIO_FORMAT_VERSION,
        "name": "mini",
        "schedule": {"period_seconds": 20.0, "num_periods": 2},
        "classes": [
            {
                "name": "class1",
                "kind": "olap",
                "goal": {"velocity": 0.4},
                "importance": 1,
                "clients": [2, 3],
            },
            {
                "name": "class3",
                "kind": "oltp",
                "goal": {"response_time": 0.25},
                "importance": 3,
                "clients": 5,
            },
        ],
    }
    mapping.update(overrides)
    return mapping


class TestSchemaValidation:
    def test_minimal_document_parses(self):
        spec = scenario_from_mapping(minimal_mapping())
        assert spec.name == "mini"
        assert spec.num_periods == 2
        assert spec.seed == 7  # default
        assert spec.controller == "qs"
        assert spec.resolved_counts() == {"class1": (2, 3), "class3": (5, 5)}

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys \\['schdule'\\]"):
            scenario_from_mapping(minimal_mapping(schdule={}))

    def test_a_negative_seed_is_one_scenario_error_naming_seed(self):
        with pytest.raises(ScenarioError, match="seed must be >= 0"):
            scenario_from_mapping(minimal_mapping(seed=-5))
        spec = scenario_from_mapping(minimal_mapping())
        with pytest.raises(ScenarioError, match="seed must be >= 0"):
            to_experiment_spec(spec, seed=-1)

    def test_version_must_be_integer(self):
        with pytest.raises(ScenarioError, match="integer format version"):
            scenario_from_mapping(minimal_mapping(scenario="1"))

    def test_future_version_rejected(self):
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            scenario_from_mapping(minimal_mapping(scenario=99))

    def test_missing_name_rejected(self):
        mapping = minimal_mapping()
        del mapping["name"]
        with pytest.raises(ScenarioError, match="missing required key 'name'"):
            scenario_from_mapping(mapping)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            scenario_from_mapping(["not", "a", "scenario"])

    def test_unknown_controller_rejected(self):
        with pytest.raises(ScenarioError, match="unknown controller 'chaos'"):
            scenario_from_mapping(minimal_mapping(controller="chaos"))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ScenarioError, match="unknown backend"):
            scenario_from_mapping(minimal_mapping(backend="oracle"))

    def test_unknown_invariant_mode_rejected(self):
        with pytest.raises(ScenarioError, match="unknown invariant mode"):
            scenario_from_mapping(minimal_mapping(invariants="pedantic"))

    def test_unquoted_invariants_off_in_yaml_means_off(self):
        """YAML 1.1 reads a bare ``off`` as boolean False."""
        text = scenario_to_yaml(scenario_from_mapping(minimal_mapping()))
        text = text.replace("invariants: 'off'", "invariants: off")
        assert "invariants: off" in text
        assert yaml.safe_load(text)["invariants"] is False
        spec = loads_scenario(text)
        assert spec.invariants == "off"
        assert loads_scenario(scenario_to_yaml(spec)) == spec

    def test_unquoted_invariants_on_names_the_valid_modes(self):
        text = scenario_to_yaml(scenario_from_mapping(minimal_mapping()))
        text = text.replace("invariants: 'off'", "invariants: on")
        with pytest.raises(ScenarioError, match="off.*warn.*strict"):
            loads_scenario(text)

    def test_duplicate_class_names_rejected(self):
        mapping = minimal_mapping()
        mapping["classes"][1]["name"] = "class1"
        with pytest.raises(ScenarioError, match="duplicate class names"):
            scenario_from_mapping(mapping)

    def test_goal_must_be_single_entry_mapping(self):
        mapping = minimal_mapping()
        mapping["classes"][0]["goal"] = {"velocity": 0.4, "response_time": 1.0}
        with pytest.raises(ScenarioError, match="one-entry mapping"):
            scenario_from_mapping(mapping)

    def test_goal_kind_pairing_validated_eagerly(self):
        mapping = minimal_mapping()
        mapping["classes"][0]["goal"] = {"response_time": 0.5}  # olap class
        with pytest.raises(ScenarioError, match="class 'class1'"):
            scenario_from_mapping(mapping)

    def test_explicit_curve_must_match_num_periods(self):
        mapping = minimal_mapping()
        mapping["classes"][0]["clients"] = [2, 3, 4]
        with pytest.raises(ScenarioError, match="has 3 periods, schedule has 2"):
            scenario_from_mapping(mapping)

    def test_num_periods_inferred_from_explicit_lists(self):
        mapping = minimal_mapping()
        del mapping["schedule"]["num_periods"]
        spec = scenario_from_mapping(mapping)
        assert spec.num_periods == 2

    def test_num_periods_required_when_all_curves_generated(self):
        mapping = minimal_mapping()
        del mapping["schedule"]["num_periods"]
        mapping["classes"][0]["clients"] = {"generator": "constant", "value": 2}
        with pytest.raises(ScenarioError, match="num_periods is required"):
            scenario_from_mapping(mapping)

    def test_reserved_control_paths_rejected(self):
        mapping = minimal_mapping(control={"scale.num_periods": 9})
        with pytest.raises(ScenarioError, match="owned by the scenario"):
            scenario_from_mapping(mapping)

    def test_bad_control_path_rejected(self):
        mapping = minimal_mapping(control={"planner.warp_speed": 1})
        with pytest.raises(ScenarioError, match="control override"):
            scenario_from_mapping(mapping)

    def test_control_overrides_reach_the_config(self):
        mapping = minimal_mapping(control={"optimizer.noise_sigma": 0.42})
        config = scenario_from_mapping(mapping).build_config()
        assert config.optimizer.noise_sigma == 0.42
        # The schedule section still owns the scale.
        assert config.scale.period_seconds == 20.0
        assert config.scale.num_periods == 2


class TestFaultParsing:
    def test_fault_compiles_with_class_translated(self):
        mapping = minimal_mapping(
            faults=[{"kind": "cancel_storm", "at_period": 1.5, "class": "class1"}]
        )
        spec = scenario_from_mapping(mapping)
        fault = spec.faults[0]
        assert fault.params == {"class_name": "class1"}
        assert fault.seconds(spec.period_seconds) == pytest.approx(30.0)
        scheduled = fault.scheduled(spec.period_seconds)
        assert isinstance(scheduled, ScheduledFault)
        assert scheduled.at == pytest.approx(30.0)

    def test_unknown_fault_kind_rejected(self):
        mapping = minimal_mapping(faults=[{"kind": "meteor", "at": 1.0}])
        with pytest.raises(ScenarioError, match="unknown fault kind 'meteor'"):
            scenario_from_mapping(mapping)

    def test_unknown_fault_param_rejected(self):
        mapping = minimal_mapping(
            faults=[{"kind": "cancel_storm", "at": 1.0, "count": 4}]
        )
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_mapping(mapping)

    def test_at_and_at_period_are_exclusive(self):
        mapping = minimal_mapping(
            faults=[{"kind": "cancel_storm", "at": 1.0, "at_period": 0.5}]
        )
        with pytest.raises(ScenarioError, match="exactly one of"):
            scenario_from_mapping(mapping)

    def test_fault_outside_horizon_rejected(self):
        mapping = minimal_mapping(faults=[{"kind": "cancel_storm", "at": 40.0}])
        with pytest.raises(ScenarioError, match="outside the\\s+schedule horizon"):
            scenario_from_mapping(mapping)

    def test_fault_on_unknown_class_rejected(self):
        mapping = minimal_mapping(
            faults=[{"kind": "arrival_burst", "at": 1.0, "class": "ghost", "count": 2}]
        )
        with pytest.raises(ScenarioError, match="unknown class 'ghost'"):
            scenario_from_mapping(mapping)


class TestClientCurveForms:
    def test_integer_shorthand_becomes_constant_generator(self):
        curve = ClientCurve.from_value(4, "test")
        assert curve.generator == "constant"
        assert curve.resolve(3) == (4, 4, 4)

    def test_generator_mapping_keeps_symbolic_form(self):
        curve = ClientCurve.from_value(
            {"generator": "ramp", "start": 1, "end": 5}, "test"
        )
        assert curve.to_value() == {"generator": "ramp", "start": 1, "end": 5}
        assert curve.resolve(5) == (1, 2, 3, 4, 5)

    def test_hyphenated_generator_name_canonicalized(self):
        curve = ClientCurve.from_value(
            {"generator": "flash-crowd", "base": 1, "peak": 3, "at": 0}, "test"
        )
        assert curve.generator == "flash_crowd"

    def test_boolean_rejected(self):
        with pytest.raises(ScenarioError, match="cannot be a boolean"):
            ClientCurve.from_value(True, "test")

    def test_negative_count_rejected(self):
        with pytest.raises(ScenarioError, match="negative client count"):
            ClientCurve.from_value([2, -1], "test")


class TestRoundTrip:
    def _rich_spec(self):
        return scenario_from_mapping(
            minimal_mapping(
                description="a rich scenario",
                seed=21,
                invariants="warn",
                horizon=30.0,
                control={"optimizer.noise_sigma": 0.3},
                faults=[
                    {"kind": "cancel_storm", "at_period": 0.5, "class": "class1",
                     "fraction": 0.5},
                    {"kind": "release_latency_jitter", "at": 12.0,
                     "release_latency": 0.4},
                ],
            )
        )

    def test_mapping_round_trip_is_identity(self):
        spec = self._rich_spec()
        assert scenario_from_mapping(scenario_to_mapping(spec)) == spec

    def test_yaml_round_trip_is_identity(self):
        spec = self._rich_spec()
        assert loads_scenario(scenario_to_yaml(spec)) == spec

    def test_defaults_are_omitted_from_the_document(self):
        mapping = scenario_to_mapping(scenario_from_mapping(minimal_mapping()))
        assert "backend" not in mapping  # sim is the default
        assert "faults" not in mapping
        assert "control" not in mapping
        assert "horizon" not in mapping

    def test_generator_curves_survive_serialization_symbolically(self):
        mapping = minimal_mapping()
        mapping["classes"][0]["clients"] = {
            "generator": "diurnal", "base": 5, "amplitude": 2, "period": 2,
        }
        spec = scenario_from_mapping(mapping)
        again = loads_scenario(scenario_to_yaml(spec))
        assert again == spec
        assert again.classes[0].clients.generator == "diurnal"


class TestToExperimentSpec:
    def test_compiles_schedule_classes_and_config(self):
        spec = scenario_from_mapping(minimal_mapping(seed=11))
        experiment = to_experiment_spec(spec)
        assert experiment.controller == "qs"
        assert experiment.config.seed == 11
        assert experiment.schedule.num_periods == 2
        assert experiment.schedule.counts["class1"] == (2, 3)
        assert [c.name for c in experiment.classes] == ["class1", "class3"]
        assert experiment.faults == ()

    def test_smoke_compresses_time_but_not_shape(self):
        spec = scenario_from_mapping(
            minimal_mapping(
                schedule={"period_seconds": 120.0, "num_periods": 2},
                faults=[{"kind": "cancel_storm", "at": 60.0}],
            )
        )
        experiment = to_experiment_spec(spec, smoke=True)
        assert experiment.schedule.period_seconds == SMOKE_PERIOD_SECONDS
        assert experiment.schedule.counts["class1"] == (2, 3)
        # Fault stays at the same *schedule position* (mid period 1).
        assert experiment.faults[0].at == pytest.approx(SMOKE_PERIOD_SECONDS / 2)
        # Control interval fits at least twice per compressed period.
        assert experiment.config.planner.control_interval <= SMOKE_PERIOD_SECONDS / 2

    def test_smoke_never_stretches_short_scenarios(self):
        spec = scenario_from_mapping(
            minimal_mapping(schedule={"period_seconds": 5.0, "num_periods": 2})
        )
        experiment = to_experiment_spec(spec, smoke=True)
        assert experiment.schedule.period_seconds == 5.0

    def test_at_period_faults_are_scale_independent(self):
        spec = scenario_from_mapping(
            minimal_mapping(
                schedule={"period_seconds": 120.0, "num_periods": 2},
                faults=[{"kind": "cancel_storm", "at_period": 1.5}],
            )
        )
        full = to_experiment_spec(spec, smoke=False)
        smoke = to_experiment_spec(spec, smoke=True)
        assert full.faults[0].at == pytest.approx(180.0)
        assert smoke.faults[0].at == pytest.approx(1.5 * SMOKE_PERIOD_SECONDS)

    def test_cli_overrides_beat_the_document(self):
        spec = scenario_from_mapping(minimal_mapping(seed=11, invariants="off"))
        experiment = to_experiment_spec(spec, invariants="strict", seed=42)
        assert experiment.invariants == "strict"
        assert experiment.config.seed == 42

    def test_explicit_horizon_scales_with_smoke(self):
        spec = scenario_from_mapping(
            minimal_mapping(
                schedule={"period_seconds": 80.0, "num_periods": 2},
                horizon=120.0,
            )
        )
        experiment = to_experiment_spec(spec, smoke=True)
        assert experiment.horizon == pytest.approx(120.0 * (8.0 / 80.0))

    def test_spec_is_frozen(self):
        spec = scenario_from_mapping(minimal_mapping())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1

    def test_validate_returns_self_for_chaining(self):
        spec = scenario_from_mapping(minimal_mapping())
        assert spec.validate() is spec

    def test_invalid_hand_built_spec_caught_by_validate(self):
        spec = ScenarioSpec(
            name="",
            period_seconds=10.0,
            num_periods=1,
            classes=(
                ScenarioClass(
                    name="c", kind="olap", goal_metric="velocity",
                    goal_value=0.4, importance=1.0,
                    clients=ClientCurve(counts=(1,)),
                ),
            ),
        )
        with pytest.raises(ScenarioError, match="non-empty name"):
            spec.validate()

    def test_hand_built_fault_validates(self):
        fault = ScenarioFault(kind="cancel_storm", at=1.0, at_period=None)
        fault.validate()
        with pytest.raises(ScenarioError, match="exactly one"):
            ScenarioFault(kind="cancel_storm").validate()


class TestShardPlan:
    def _sharded_mapping(self, shards):
        return minimal_mapping(shards=shards)

    def test_full_block_parses(self):
        spec = scenario_from_mapping(
            self._sharded_mapping(
                {"count": 4, "router": "cost-aware", "rebalance": "interval",
                 "seed_stride": 50}
            )
        )
        assert spec.shards.count == 4
        assert spec.shards.router == "cost-aware"
        assert spec.shards.rebalance == "interval"
        assert spec.shards.seed_stride == 50

    def test_bare_int_shorthand(self):
        spec = scenario_from_mapping(self._sharded_mapping(3))
        assert spec.shards.count == 3
        assert spec.shards.router == "hash"
        assert spec.shards.rebalance == "static"

    def test_round_trip_is_identity(self):
        spec = scenario_from_mapping(
            self._sharded_mapping({"count": 6, "router": "least-loaded"})
        )
        assert scenario_from_mapping(scenario_to_mapping(spec)) == spec
        assert loads_scenario(scenario_to_yaml(spec)) == spec

    def test_defaults_omitted_from_document(self):
        spec = scenario_from_mapping(self._sharded_mapping({"count": 2}))
        mapping = scenario_to_mapping(spec)
        assert mapping["shards"] == {"count": 2}

    def test_unsharded_document_has_no_shards_key(self):
        mapping = scenario_to_mapping(scenario_from_mapping(minimal_mapping()))
        assert "shards" not in mapping

    def test_bad_router_rejected(self):
        with pytest.raises(ScenarioError, match="router"):
            scenario_from_mapping(
                self._sharded_mapping({"count": 2, "router": "roulette"})
            )

    def test_bad_rebalance_rejected(self):
        with pytest.raises(ScenarioError, match="rebalance"):
            scenario_from_mapping(
                self._sharded_mapping({"count": 2, "rebalance": "never"})
            )

    def test_boolean_count_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_mapping(self._sharded_mapping(True))

    def test_non_positive_count_rejected(self):
        with pytest.raises(ScenarioError, match="count"):
            scenario_from_mapping(self._sharded_mapping(0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown"):
            scenario_from_mapping(
                self._sharded_mapping({"count": 2, "policy": "hash"})
            )


class TestToShardedExperimentSpec:
    def test_document_plan_carries_through(self):
        spec = scenario_from_mapping(
            minimal_mapping(shards={"count": 2, "router": "least-loaded"})
        )
        sharded = to_sharded_experiment_spec(spec)
        assert sharded.shards == 2
        assert sharded.router == "least-loaded"
        assert sharded.rebalance == "static"
        assert sharded.base.controller == "qs"

    def test_unsharded_document_defaults_to_one_shard(self):
        sharded = to_sharded_experiment_spec(scenario_from_mapping(minimal_mapping()))
        assert sharded.shards == 1

    def test_cli_overrides_beat_the_document(self):
        spec = scenario_from_mapping(minimal_mapping(shards={"count": 2}))
        sharded = to_sharded_experiment_spec(
            spec, shards=3, router="cost-aware", rebalance="interval", seed=42
        )
        assert sharded.shards == 3
        assert sharded.router == "cost-aware"
        assert sharded.rebalance == "interval"
        assert sharded.base.config.seed == 42

    def test_smoke_compresses_base_spec(self):
        spec = scenario_from_mapping(
            minimal_mapping(
                shards={"count": 2},
                schedule={"period_seconds": 120.0, "num_periods": 2},
            )
        )
        sharded = to_sharded_experiment_spec(spec, smoke=True)
        assert sharded.base.schedule.period_seconds == SMOKE_PERIOD_SECONDS


def _malformed(path, value):
    """``minimal_mapping()`` with the value at ``path`` replaced (``None``
    deletes the key)."""
    mapping = minimal_mapping(
        shards={"count": 2},
        faults=[
            {"kind": "arrival_burst", "at": 1.0, "class": "class1", "count": 2},
            {"kind": "cancel_storm", "at": 2.0, "fraction": 0.5},
            {"kind": "release_latency_jitter", "at": 3.0, "release_latency": 0.4},
        ],
    )
    *parents, key = path
    node = mapping
    for part in parents:
        node = node[part]
    if value is None:
        del node[key]
    else:
        node[key] = value
    return mapping


#: (path into the document, bad value, what the error must name).
MALFORMED = [
    (("seed",), "seven", "seed"),
    (("seed",), 7.9, "seed"),
    (("seed",), True, "seed"),
    (("schedule", "period_seconds"), "long", "period_seconds"),
    (("schedule", "period_seconds"), float("nan"), "period_seconds"),
    (("schedule", "num_periods"), "two", "num_periods"),
    (("schedule", "num_periods"), 2.5, "num_periods"),
    (("horizon",), "long", "horizon"),
    (("horizon",), float("nan"), "horizon"),
    (("horizon",), float("inf"), "horizon"),
    (("schedule", "period_seconds"), float("inf"), "period_seconds"),
    (("classes", 0, "importance"), "high", "importance"),
    (("classes", 0, "importance"), float("nan"), "importance"),
    (("classes", 0, "goal"), {"velocity": "fast"}, "velocity"),
    (("classes", 0, "goal"), {"velocity": float("nan")}, "velocity"),
    (("classes", 0, "goal"), {"velocity": 1.5}, "class 'class1'"),
    (("classes", 0), "class1", "classes"),
    (("classes", 0, "clients"), [2.7, 3], "client count"),
    (("shards", "count"), "two", "count"),
    (("shards", "count"), 2.5, "count"),
    (("shards", "seed_stride"), "wide", "seed_stride"),
    (("faults", 0, "at"), "soon", "at"),
    (("faults", 0, "count"), 2.5, "count"),
    (("faults", 0, "count"), None, "count"),
    (("faults", 0, "class"), None, "class"),
    (("faults", 1, "fraction"), "half", "fraction"),
    (("faults", 1, "fraction"), 1.5, "fraction"),
    (("faults", 2, "release_latency"), "slow", "release_latency"),
    (("faults", 2, "release_latency"), -1.0, "release_latency"),
]


class TestMalformedValues:
    """Every value is checked where it is read: a malformed one is a
    ScenarioError naming its key, never a traceback, a truncation or a
    run that crashes later."""

    def test_the_base_document_is_valid(self):
        spec = scenario_from_mapping(_malformed(("description",), "ok"))
        assert loads_scenario(scenario_to_yaml(spec)) == spec

    @pytest.mark.parametrize(
        "path, value, named", MALFORMED,
        ids=["{}={!r}".format(".".join(map(str, p)), v) for p, v, _ in MALFORMED],
    )
    def test_malformed_value_is_a_scenario_error_naming_its_key(self, path, value, named):
        with pytest.raises(ScenarioError) as excinfo:
            scenario_from_mapping(_malformed(path, value))
        assert named in str(excinfo.value)

    def test_drop_completions_names_no_component(self):
        mapping = minimal_mapping(
            faults=[{"kind": "drop_completions", "at": 1.0, "component": "monitor"}]
        )
        with pytest.raises(ScenarioError, match="unknown keys \\['component'\\]"):
            scenario_from_mapping(mapping)
