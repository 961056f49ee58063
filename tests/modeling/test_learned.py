"""Learned residual model: cold-start safety, learning, serialisation."""

import json
import math
import random

import pytest

from repro.core.modeling import (
    ClassMixState,
    IntervalObservation,
    LearnedPerformanceModel,
    MixSnapshot,
    OracleLastValueModel,
    PaperAnalyticModel,
)
from repro.core.modeling.learned import FEATURE_DIM, _ClassPredictor
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.core.solver import ClassStatus
from repro.errors import ConfigurationError
from tests.conftest import make_mix, trained_model


def olap_status(value, limit=10_000.0, name="c1"):
    sc = ServiceClass(name, "olap", VelocityGoal(0.5), 1)
    return ClassStatus(sc, limit, value)


def oltp_status(value, limit=10_000.0, name="c3"):
    sc = ServiceClass(name, "oltp", ResponseTimeGoal(0.25), 3)
    return ClassStatus(sc, limit, value)


def mix_of(time, value, limit=10_000.0, queue=4, in_flight=2, name="c1"):
    state = ClassMixState(name, "olap", limit, value, queue, in_flight, 800.0)
    return MixSnapshot(time=time, classes=(state,))


def textbook_rls_update(w, p, x, residual, forgetting):
    """The RLS fold-in written out index by index — the operation order
    ``_ClassPredictor.update`` must keep: k = P x / (λ + x'P x);
    w += k (y - w'x); P = (P - k x'P) / λ, every dot product from 0.0 in
    index order.  Returns whether the update was applied."""
    dim = len(x)
    if not math.isfinite(residual):
        return False
    px = []
    for i in range(dim):
        total = 0.0
        for j in range(dim):
            total += p[i][j] * x[j]
        px.append(total)
    total = 0.0
    for i in range(dim):
        total += px[i] * x[i]
    denom = forgetting + total
    if denom <= 0 or not math.isfinite(denom):
        return False
    gain = [px[i] / denom for i in range(dim)]
    predicted = 0.0
    for i in range(dim):
        predicted += w[i] * x[i]
    error = residual - predicted
    for i in range(dim):
        w[i] = w[i] + gain[i] * error
    xp = []
    for j in range(dim):
        total = 0.0
        for i in range(dim):
            total += p[i][j] * x[i]
        xp.append(total)
    for i in range(dim):
        for j in range(dim):
            p[i][j] = (p[i][j] - gain[i] * xp[j]) / forgetting
    return True


class TestRecursiveLeastSquares:
    def test_update_matches_the_textbook_fold_in_bit_for_bit(self):
        rng = random.Random(2007)
        predictor = _ClassPredictor("olap", ridge=4.0)
        w = list(predictor.w)
        p = [list(row) for row in predictor.p]
        applied = 0
        for step in range(200):
            x = [1.0] + [rng.uniform(-2.0, 2.0) for _ in range(FEATURE_DIM - 1)]
            residual = rng.uniform(-0.5, 0.5)
            if step % 37 == 5:
                residual = rng.choice([float("nan"), float("inf"), float("-inf")])
            forgetting = rng.choice([1.0, 0.995, 0.9])
            predictor.update(x, residual, forgetting)
            applied += textbook_rls_update(w, p, x, residual, forgetting)
            assert predictor.w == w and predictor.p == p, step
        assert predictor.observations == applied == 200 - 6

    def test_non_positive_denominator_is_skipped(self):
        predictor = _ClassPredictor("olap", ridge=4.0)
        # A covariance that is not positive definite: x'Px = -8 / ridge.
        predictor.p = [[-value for value in row] for row in predictor.p]
        before = ([*predictor.w], [list(row) for row in predictor.p])
        predictor.update([1.0] * FEATURE_DIM, 0.3, forgetting=0.995)
        assert (predictor.w, predictor.p) == before
        assert predictor.observations == 0


class TestColdStart:
    """With zero observations the learned model IS the paper model
    (clamped): departures need data."""

    def test_olap_cold_prediction_equals_analytic(self):
        learned = LearnedPerformanceModel()
        paper = PaperAnalyticModel()
        for value, new_limit in ((0.3, 5_000.0), (0.5, 10_000.0), (0.9, 25_000.0)):
            assert learned.predict(olap_status(value), new_limit) == (
                paper.predict(olap_status(value), new_limit)
            )

    def test_oltp_cold_prediction_equals_analytic_base(self):
        learned = LearnedPerformanceModel(prior_slope=-5e-6)
        expected = 0.3 + (-5e-6) * (20_000.0 - 10_000.0)
        assert learned.predict(oltp_status(0.3), 20_000.0) == pytest.approx(expected)


class TestLearning:
    def test_learns_constant_residual_and_beats_analytic(self):
        """Realised values run a constant 0.05 above the analytic
        prediction; the residual learner must pick that up."""
        model = LearnedPerformanceModel()
        value = 0.2
        model.observe(IntervalObservation(0.0, mix_of(0.0, value)))
        for k in range(1, 13):
            value = min(1.0, value + 0.05)  # limits constant -> base = prev
            model.observe(IntervalObservation(60.0 * k, mix_of(60.0 * k, value)))
        assert model.observations == 12
        mix = mix_of(800.0, value)
        predicted = model.predict(olap_status(value), 10_000.0, mix)
        learned_error = abs(predicted - min(1.0, value + 0.05))
        analytic_error = abs(value - min(1.0, value + 0.05))  # paper predicts no change
        assert learned_error < analytic_error
        assert learned_error < 0.03

    def test_correction_is_clamped_against_blowup(self):
        model = LearnedPerformanceModel()
        predictor = model._predictor("c1", "olap")
        predictor.w = [100.0] * len(predictor.w)  # absurd weights
        predictor.observations = 5
        predicted = model.predict(olap_status(0.4), 10_000.0, mix_of(0.0, 0.4))
        assert 0.0 <= predicted <= 1.0

    def test_predict_equals_the_max_min_formulation(self):
        """``predict`` clamps with comparisons; the definition is the
        nested ``max``/``min`` kept here.  Same float (bit for bit, NaN
        for NaN) over trained weights, random candidates and the values
        where the two could part: NaN, infinities, signed zeros, a
        poisoned weight."""
        from repro.core.modeling.analytic import OLAPVelocityModel
        from repro.core.modeling.learned import (
            _MAX_CORRECTION_RATIO,
            _MIN_CORRECTION_SCALE,
            _features,
            _mix_features,
        )

        def reference(model, status, limit, mix):
            sc = status.service_class
            if sc.kind == "olap":
                base = OLAPVelocityModel.predict(
                    status.current_value, status.current_limit, limit
                )
            else:
                base = model._base_oltp.predict(
                    status.current_value, status.current_limit, limit
                )
            predictor = model._classes.get(sc.name)
            correction = 0.0
            if predictor is not None and predictor.observations:
                correction = predictor.correction(
                    _features(
                        status.current_value,
                        status.current_limit,
                        limit,
                        _mix_features(mix, sc.name),
                    )
                )
                if not math.isfinite(correction):
                    correction = 0.0
                bound = max(_MAX_CORRECTION_RATIO * abs(base), _MIN_CORRECTION_SCALE)
                correction = min(max(correction, -bound), bound)
            if sc.kind == "olap":
                return max(0.0, min(1.0, base + correction))
            return max(base + correction, 1e-3)

        def same(a, b):
            return (math.isnan(a) and math.isnan(b)) or (
                a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
            )

        rng = random.Random(2016)
        nan, inf = float("nan"), float("inf")
        odd_values = [nan, inf, -inf, 0.0, -0.0, 1.0, 1e-3, -5.0, 1e300]
        statuses = [olap_status(0.4, name="c1"), oltp_status(0.3, name="c3")]
        model = trained_model(statuses, seed=4)
        checked = 0
        for trial in range(300):
            for status in statuses:
                value = rng.uniform(0, 2)
                if trial % 3 == 0:
                    value = rng.choice(odd_values)
                limit = rng.uniform(1e3, 3e4)
                if trial % 5 == 0:
                    limit = rng.choice([0.0, 1.0, 1e9, nan, inf])
                probe = ClassStatus(status.service_class, rng.uniform(1.0, 3e4), value)
                mix = make_mix(statuses, rng) if trial % 4 else None
                if trial == 150:  # from here on: one weight is NaN, one infinite
                    model._classes["c1"].w[2] = nan
                    model._classes["c3"].w[0] = inf
                got = model.predict(probe, limit, mix)
                assert same(got, reference(model, probe, limit, mix)), (value, limit)
                checked += 1
        assert checked == 600

    def test_missing_values_are_skipped(self):
        model = LearnedPerformanceModel()
        model.observe(IntervalObservation(0.0, mix_of(0.0, None)))
        model.observe(IntervalObservation(60.0, mix_of(60.0, 0.5)))
        assert model.observations == 0


class TestCorruptReset:
    def test_corrupt_poisons_predictions(self):
        model = LearnedPerformanceModel()
        model.corrupt("regression")
        assert math.isnan(model.predict(olap_status(0.4), 10_000.0))
        model.reset()
        assert model.predict(olap_status(0.4), 10_000.0) == pytest.approx(0.4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel().corrupt("gamma")


class TestState:
    def test_describe_renders_each_class_in_name_order_rounded_to_9_places(self):
        model = LearnedPerformanceModel(ridge=2.0)
        for k in range(6):
            mix = MixSnapshot(
                60.0 * k,
                tuple(
                    ClassMixState(
                        name, kind, 9_000.0 + 700.0 * (k % 3), 0.2 + 0.03 * k,
                        k % 4, 1, 600.0,
                    )
                    for name, kind in (("zeta", "olap"), ("alpha", "oltp"))
                ),
            )
            model.observe(IntervalObservation(60.0 * k, mix))
        expected = {
            "name": "learned",
            "observations": 10,
            "ridge": 2.0,
            "forgetting": 0.995,
            "corrupted": False,
            "classes": {
                name: {
                    "kind": predictor.kind,
                    "observations": 5,
                    "weights": [round(w, 9) for w in predictor.w],
                }
                for name, predictor in (
                    ("alpha", model._classes["alpha"]),
                    ("zeta", model._classes["zeta"]),
                )
            },
        }
        assert json.dumps(model.describe()) == json.dumps(expected)
        assert (model.state().slope, model.state().observations) == (None, 10)

    def test_a_state_keeps_its_values_while_the_model_moves_on(self):
        model = LearnedPerformanceModel()
        for k in range(3):
            model.observe(IntervalObservation(60.0 * k, mix_of(60.0 * k, 0.2 + 0.05 * k)))
        state = model.state()
        rendered = state.to_dict()
        model.observe(IntervalObservation(180.0, mix_of(180.0, 0.6)))
        model.corrupt()
        assert model.state().to_dict() != rendered
        model.reset()
        assert state.to_dict() == rendered
        assert model.state().to_dict()["classes"] == {}

    def test_oracle_state_is_one_object_until_corrupt_or_reset(self):
        oracle = OracleLastValueModel()
        state = oracle.state()
        assert oracle.state() is state
        oracle.corrupt()
        assert oracle.describe() == {"name": "oracle", "observations": 0, "corrupted": True}
        oracle.reset()
        assert oracle.state().to_dict() == state.to_dict()
        assert (state.slope, state.observations) == (None, 0)


class TestSerialisation:
    def test_round_trip_preserves_predictions(self):
        model = LearnedPerformanceModel(ridge=2.0, forgetting=0.99)
        value = 0.2
        model.observe(IntervalObservation(0.0, mix_of(0.0, value)))
        for k in range(1, 9):
            value += 0.05
            model.observe(IntervalObservation(60.0 * k, mix_of(60.0 * k, value)))
        clone = LearnedPerformanceModel.from_dict(
            json.loads(json.dumps(model.to_dict()))
        )
        mix = mix_of(900.0, value)
        assert clone.predict(olap_status(value), 12_000.0, mix) == (
            model.predict(olap_status(value), 12_000.0, mix)
        )
        assert clone.ridge == 2.0
        assert clone.forgetting == 0.99

    def test_from_dict_rejects_foreign_payload(self):
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel.from_dict({"format": 2, "name": "learned"})
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel.from_dict({"format": 1, "name": "paper"})

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel(ridge=0.0)
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel(ridge=float("nan"))
        with pytest.raises(ConfigurationError):
            LearnedPerformanceModel(forgetting=1.5)

    @pytest.mark.parametrize(
        "damage, names",
        [
            (lambda c, h: c.pop("kind"), ("c1", "kind")),
            (lambda c, h: c.update(kind="htap"), ("c1", "kind")),
            (lambda c, h: c["weights"].pop(), ("c1", "weights")),
            (lambda c, h: c["weights"].append(0.0), ("c1", "weights")),
            (lambda c, h: c["weights"].__setitem__(3, float("nan")), ("c1", "weights")),
            (lambda c, h: c["weights"].__setitem__(3, "0.1"), ("c1", "weights")),
            (lambda c, h: c.pop("weights"), ("c1", "weights")),
            (lambda c, h: c["covariance"][2].pop(), ("c1", "covariance")),
            (lambda c, h: c["covariance"].pop(), ("c1", "covariance")),
            (
                lambda c, h: c["covariance"][0].__setitem__(0, float("inf")),
                ("c1", "covariance"),
            ),
            (lambda c, h: c.update(observations=-1), ("c1", "observations")),
            (lambda c, h: c.update(observations=2.5), ("c1", "observations")),
            (lambda c, h: c.update(observations="5"), ("c1", "observations")),
            (lambda c, h: c.pop("observations"), ("c1", "observations")),
            (lambda c, h: h.update(ridge="abc"), ("ridge",)),
            (lambda c, h: h.update(ridge=float("nan")), ("ridge",)),
            (lambda c, h: h.update(ridge=0.0), ("ridge",)),
            (lambda c, h: h.update(ridge=float("inf")), ("ridge",)),
        ],
        ids=[
            "no-kind", "unknown-kind", "7-weights", "9-weights", "nan-weight",
            "string-weight", "no-weights", "7-entry-covariance-row",
            "7-covariance-rows", "inf-covariance", "negative-observations",
            "fractional-observations", "string-observations", "no-observations",
            "string-ridge", "nan-ridge", "zero-ridge", "infinite-ridge",
        ],
    )
    def test_a_malformed_model_file_is_refused_naming_class_and_key(
        self, damage, names
    ):
        """Regression: these loaded silently (the weights fell back to
        zeros under a non-zero count) or died with a KeyError / ValueError
        traceback, at load or at the first update."""
        model = LearnedPerformanceModel()
        for k in range(4):
            model.observe(IntervalObservation(60.0 * k, mix_of(60.0 * k, 0.2 + 0.05 * k)))
        payload = json.loads(json.dumps(model.to_dict()))
        damage(payload["classes"]["c1"], payload["hyper"])
        payload = json.loads(json.dumps(payload))  # as read from a file
        with pytest.raises(ConfigurationError) as caught:
            LearnedPerformanceModel.from_dict(payload)
        for name in names:
            assert repr(name) in str(caught.value)


class TestMixAwareness:
    def test_features_follow_the_snapshot_not_the_previous_interval(self):
        """The mix features are derived once per snapshot; the next
        interval's snapshot (same class, same status, different mix) must
        be featurized afresh, even when an equal snapshot is rebuilt."""
        statuses = [olap_status(0.4, name="c1"), olap_status(0.6, name="c2")]
        model = trained_model(statuses, seed=9)
        quiet = make_mix(statuses, random.Random(1))
        busy = MixSnapshot(
            time=1.0,
            classes=tuple(
                state._replace(queue_length=state.queue_length + 25)
                for state in quiet.classes
            ),
        )
        fresh = LearnedPerformanceModel.from_dict(model.to_dict())
        in_quiet = model.predict(statuses[0], 12_000.0, quiet)
        assert model.predict(statuses[0], 14_000.0, quiet) == fresh.predict(
            statuses[0], 14_000.0, quiet
        )
        in_busy = model.predict(statuses[0], 12_000.0, busy)
        assert in_busy == fresh.predict(statuses[0], 12_000.0, busy)
        assert in_busy != in_quiet
        # An equal snapshot built anew, and no snapshot at all.
        again = MixSnapshot(time=quiet.time, classes=tuple(quiet.classes))
        assert model.predict(statuses[0], 12_000.0, again) == in_quiet
        assert model.predict(statuses[0], 12_000.0, None) == fresh.predict(
            statuses[0], 12_000.0, None
        )

    def test_observe_pairs_the_previous_snapshot_with_its_own_features(self):
        """``observe`` featurizes the *previous* mix; predicting under that
        mix first (which fills the per-snapshot features) changes nothing."""
        statuses = [olap_status(0.4, name="c1"), olap_status(0.6, name="c2")]
        warmed = trained_model(statuses, seed=3)
        cold = trained_model(statuses, seed=3)
        rng_a, rng_b = random.Random(8), random.Random(8)
        for step in range(4):
            mix_a = make_mix(statuses, rng_a, float(step))
            mix_b = make_mix(statuses, rng_b, float(step))
            warmed.observe(IntervalObservation(float(step), mix_a))
            cold.observe(IntervalObservation(float(step), mix_b))
            for status in statuses:  # only one model predicts in between
                warmed.predict(status, 9_000.0, mix_a)
        assert warmed.to_dict() == cold.to_dict()


class TestOracle:
    def test_predicts_last_value_whatever_the_limit(self):
        oracle = OracleLastValueModel()
        for limit in (1_000.0, 10_000.0, 30_000.0):
            assert oracle.predict(olap_status(0.37), limit) == pytest.approx(0.37)

    def test_clamps_by_kind(self):
        oracle = OracleLastValueModel()
        assert oracle.predict(olap_status(1.4), 10_000.0) == 1.0
        assert oracle.predict(oltp_status(0.0), 10_000.0) == pytest.approx(1e-3)

    def test_corrupt_and_reset(self):
        oracle = OracleLastValueModel()
        oracle.corrupt()
        assert math.isnan(oracle.predict(olap_status(0.5), 10_000.0))
        oracle.reset()
        assert oracle.predict(olap_status(0.5), 10_000.0) == pytest.approx(0.5)
