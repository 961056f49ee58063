"""Offline training from telemetry records, and the ``repro train`` CLI."""

import json

import pytest

from repro.cli import main
from repro.core.modeling import (
    LearnedPerformanceModel,
    evaluate_on_records,
    fit_from_records,
    load_model,
    load_telemetry_records,
    observations_from_records,
    save_model,
)
from repro.errors import ConfigurationError


def record(time, allocation, values, queue=2):
    """One telemetry record dict in the exported JSONL shape."""
    return {
        "time": time,
        "solver": {"allocation": dict(allocation)},
        "measurements": {
            name: {"metric": metric, "value": value}
            for name, (metric, value) in values.items()
        },
        "dispatcher": {
            name: {"queue_length": queue, "in_flight_count": 1, "in_flight_cost": 500.0}
            for name in allocation
        },
    }


def synthetic_records(n=10):
    records = []
    value = 0.3
    for k in range(n):
        limit = 10_000.0 + 1_000.0 * (k % 3)
        records.append(
            record(
                60.0 * k,
                {"c1": limit, "c3": 30_000.0 - limit},
                {
                    "c1": ("velocity", min(1.0, value)),
                    "c3": ("response_time", 0.2 + 0.01 * (k % 2)),
                },
            )
        )
        value += 0.04
    return records


class TestObservationReconstruction:
    def test_active_limits_lag_the_allocation_by_one_record(self):
        """Record k's values realised under record k-1's chosen limits."""
        records = synthetic_records(3)
        observations = observations_from_records(records)
        assert len(observations) == 3
        # First record: no predecessor, seeded from its own allocation.
        assert observations[0].mix.get("c1").limit == 10_000.0
        # Second record pairs with the FIRST record's allocation.
        assert observations[1].mix.get("c1").limit == 10_000.0
        # Third record pairs with the second's (10_000 + 1_000).
        assert observations[2].mix.get("c1").limit == 11_000.0

    def test_kinds_follow_the_metric(self):
        observations = observations_from_records(synthetic_records(2))
        assert observations[0].mix.get("c1").kind == "olap"
        assert observations[0].mix.get("c3").kind == "oltp"

    def test_queue_state_carried(self):
        observations = observations_from_records(synthetic_records(2))
        state = observations[0].mix.get("c1")
        assert state.queue_length == 2
        assert state.in_flight_count == 1

    @pytest.mark.parametrize(
        "damage, key",
        [
            (lambda r: r["solver"]["allocation"].update(c1="x"), "solver.allocation.c1"),
            (lambda r: r["dispatcher"]["c3"].update(queue_length="many"), "dispatcher.c3.queue_length"),
            (lambda r: r["measurements"]["c3"].update(value="fast"), "measurements.c3.value"),
            (lambda r: r.update(solver=["allocation"]), "solver"),
        ],
        ids=["allocation", "queue-length", "value", "section"],
    )
    def test_a_value_of_the_wrong_type_names_record_and_key(self, damage, key):
        records = synthetic_records(3)
        damage(records[1])
        with pytest.raises(ConfigurationError, match=r"record 1 .*'{}'".format(key)):
            observations_from_records(records)

    def test_a_record_that_is_not_a_mapping_is_named(self):
        with pytest.raises(ConfigurationError, match="record 2 "):
            observations_from_records(synthetic_records(2) + [42])


class TestFitAndEvaluate:
    def test_fit_accumulates_observations(self):
        model = fit_from_records(synthetic_records(10))
        assert model.observations > 0
        assert model._pending is None  # no leak into live pairing

    def test_evaluate_is_prequential(self):
        records = synthetic_records(8)
        errors = evaluate_on_records(records, LearnedPerformanceModel())
        # One scored transition per record pair, per class with values.
        assert len(errors["c1"]) == 7
        assert len(errors["c3"]) == 7
        for time, error in errors["c1"]:
            assert error >= 0.0

    def test_evaluate_scores_before_observing(self):
        """The scorer must never leak the outcome into the prediction: a
        model that simply memorises the last observed value per class
        would otherwise show zero error."""

        class Memoriser:
            name = "memo"

            def __init__(self):
                self.seen = {}

            def predict(self, status, proposed_limit, mix=None):
                return self.seen.get(status.service_class.name, status.current_value)

            def observe(self, observation):
                for state in observation.mix.classes:
                    if state.value is not None:
                        self.seen[state.name] = state.value

        errors = evaluate_on_records(synthetic_records(6), Memoriser())
        # Values drift every interval, so a memoriser must show error.
        assert any(e > 0.0 for _, e in errors["c1"])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "model.json")
        model = fit_from_records(synthetic_records(10))
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.observations == model.observations
        assert loaded.to_dict() == model.to_dict()

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_model(str(tmp_path / "absent.json"))

    def test_load_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_model(str(path))

    def test_load_telemetry_from_file_and_dir(self, tmp_path):
        records = synthetic_records(4)
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert len(load_telemetry_records(str(path))) == 4
        assert len(load_telemetry_records(str(tmp_path))) == 4
        with pytest.raises(ConfigurationError):
            load_telemetry_records(str(tmp_path / "missing"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigurationError):
            load_telemetry_records(str(empty))

    def test_load_telemetry_refuses_a_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(synthetic_records(1)[0]) + "\n42\n")
        with pytest.raises(ConfigurationError, match=r"line 2: not a JSON object"):
            load_telemetry_records(str(path))


class TestTrainCLI:
    def test_trace_train_run_round_trip(self, tmp_path, capsys):
        """The full loop: export telemetry, train on it, run with the
        trained model under strict invariants."""
        telemetry = str(tmp_path / "telemetry.jsonl")
        model_path = str(tmp_path / "model.json")
        assert main([
            "trace", "--periods", "2", "--period-seconds", "20",
            "--control-interval", "10", "--output", telemetry,
        ]) == 0
        assert main([
            "train", "--telemetry", telemetry, "--output", model_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "trained on" in out
        assert "prequential MAE" in out
        loaded = load_model(model_path)
        assert loaded.observations > 0
        assert main([
            "run", "--controller", "qs", "--periods", "2",
            "--period-seconds", "20", "--control-interval", "10",
            "--model", "learned:" + model_path, "--invariants", "strict",
        ]) == 0
        run_out = capsys.readouterr().out
        assert "no violations" in run_out

    def test_train_bad_telemetry_path_errors(self, tmp_path, capsys):
        assert main([
            "train", "--telemetry", str(tmp_path / "nope"),
            "--output", str(tmp_path / "m.json"),
        ]) == 2
        assert "train error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, named",
        [
            (lambda records: [json.dumps(records[0]), "42"], "line 2: not a JSON object"),
            (
                lambda records: [json.dumps(records[0]), json.dumps(
                    dict(records[1], solver={"allocation": {"c1": "x"}}))],
                "record 1 (0-based): 'solver.allocation.c1'",
            ),
        ],
        ids=["not-an-object", "wrong-type-value"],
    )
    def test_train_refuses_a_record_of_the_wrong_shape_in_one_line(
        self, tmp_path, capsys, lines, named
    ):
        telemetry = tmp_path / "t.jsonl"
        telemetry.write_text("\n".join(lines(synthetic_records(2))) + "\n")
        assert main([
            "train", "--telemetry", str(telemetry), "--output", str(tmp_path / "m.json"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("train error: ")
        assert named in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("as_directory", [False, True], ids=["file", "dir"])
    @pytest.mark.parametrize(
        "damage, bad_line",
        [
            (lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]], 5),
            (lambda lines: lines[:2] + ["<<< not json >>>"] + lines[3:], 3),
        ],
        ids=["truncated-last-line", "garbage-middle-line"],
    )
    def test_train_names_file_and_line_of_a_bad_record(
        self, tmp_path, capsys, damage, bad_line, as_directory
    ):
        """Regression: a damaged export used to die with a raw
        JSONDecodeError whose "line 1" was the offset inside the line."""
        good = tmp_path / "a-good.jsonl"
        good.write_text("".join(json.dumps(r) + "\n" for r in synthetic_records(3)))
        lines = [json.dumps(r) for r in synthetic_records(4)]
        lines.insert(1, "")  # blank lines are skipped but still counted
        broken = tmp_path / "b-broken.jsonl"
        broken.write_text("\n".join(damage(lines)))
        output = tmp_path / "out" / "model.json"
        output.parent.mkdir()
        assert main([
            "train", "--telemetry", str(tmp_path if as_directory else broken),
            "--output", str(output),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("train error: ")
        assert repr(str(broken)) in captured.err
        assert "line {}:".format(bad_line) in captured.err
        assert "Traceback" not in captured.err
        assert not output.exists()

    def test_run_rejects_unknown_model(self, capsys):
        assert main(["run", "--model", "quantum"]) == 2
        assert "model error" in capsys.readouterr().err

    def test_run_rejects_missing_model_file(self, capsys):
        assert main(["run", "--model", "learned:/nonexistent/model.json"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: m["classes"]["class1"].pop("kind"),
            lambda m: m["hyper"].update(ridge="abc"),
            lambda m: m["classes"]["class1"]["weights"].pop(),
            lambda m: m["classes"]["class1"]["covariance"][0].pop(),
        ],
        ids=["no-kind", "string-ridge", "7-weights", "7-entry-covariance-row"],
    )
    def test_run_refuses_a_malformed_model_file_in_one_line(
        self, tmp_path, capsys, damage
    ):
        """Regression: these died with a traceback (at load or at the first
        update), or ran on all-zero weights under a non-zero count."""
        trained = fit_from_records(synthetic_records(6)).to_dict()
        payload = json.loads(json.dumps(trained))
        # The run's class names: c1 -> class1 (OLAP), c3 -> class3 (OLTP).
        payload["classes"] = {
            "class" + name[1:]: state for name, state in payload["classes"].items()
        }
        damage(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main([
            "run", "--model", "learned:" + str(path), "--periods", "2",
            "--period-seconds", "20", "--control-interval", "10",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert "'class1'" in err or "'ridge'" in err
