"""Learned performance models (stdlib-only, ROADMAP item 4).

The paper's analytic predictors are single-knob extrapolations: each
class's next value is a function of *its own* limit change only.  Under
workload shift that assumption is the first thing to break — an OLAP
class's velocity depends on how loaded the *other* classes are, and the
OLTP response time depends on total OLAP pressure, not just its own
virtual limit.

:class:`LearnedPerformanceModel` keeps the analytic model as a physically
sensible base prediction and learns a **per-class residual correction**
with recursive least squares (online ridge regression) featurized on the
full concurrent mix: the class's own limit move, queue depth and
in-flight count, plus the other classes' limits and queue pressure.  With
zero observations the correction is exactly zero — the learned model
*starts as* the paper model and departs only where data supports it,
which keeps cold-start behaviour safe.

:class:`OracleLastValueModel` is the persistence baseline for the
ablation bench: "tomorrow equals today", blind to the control knob.
Everything here is pure Python floats — deterministic, picklable, no
numpy.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.core.modeling.analytic import (
    OLAPVelocityModel,
    OLTPResponseTimeModel,
)
from repro.core.modeling.protocol import IntervalObservation, MixSnapshot
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.solver import ClassStatus

#: Feature-vector length (see :func:`_features`).  The predictor's dot
#: products are written out for exactly this many terms; another length
#: fails loudly at their unpacking.
FEATURE_DIM = 8

#: Normalisation scales keeping every feature O(1): timeron budgets run in
#: the tens of thousands, queue depths in the tens.
_LIMIT_SCALE = 10_000.0
_QUEUE_SCALE = 32.0

#: A residual correction is clamped to this multiple of the base
#: prediction's magnitude (with an absolute floor, so a near-zero base can
#: still be corrected).  The learned term refines the analytic model; it
#: must never be able to swamp it on one bad update.
_MAX_CORRECTION_RATIO = 0.75
_MIN_CORRECTION_SCALE = 0.25


def _mix_features(
    mix: Optional[MixSnapshot], class_name: str
) -> Tuple[float, float, float, float]:
    """The four features that depend on the concurrent mix alone.

    Own queue depth, own in-flight count, the other classes' summed limit
    and summed queue depth (both accumulated in mix order), each scaled.
    ``mix`` may be None (predictions outside a control loop): the
    features are then zero and the model degrades gracefully toward its
    own-knob terms.
    """
    queue_length = 0.0
    in_flight = 0.0
    others_limit = 0.0
    others_queue = 0.0
    if mix is not None:
        for state in mix.classes:
            if state.name == class_name:
                queue_length = float(state.queue_length)
                in_flight = float(state.in_flight_count)
                continue
            others_limit += state.limit
            others_queue += state.queue_length
    return (
        queue_length / _QUEUE_SCALE,
        in_flight / _QUEUE_SCALE,
        others_limit / _LIMIT_SCALE,
        others_queue / _QUEUE_SCALE,
    )


def _features(
    value: float,
    current_limit: float,
    proposed_limit: float,
    mix_features: Tuple[float, float, float, float],
) -> List[float]:
    """The fixed-length feature vector: own-knob terms, then the mix's."""
    return [
        1.0,
        (proposed_limit - current_limit) / _LIMIT_SCALE,
        value,
        proposed_limit / _LIMIT_SCALE,
        *mix_features,
    ]


class _ClassPredictor:
    """Recursive-least-squares residual learner for one class."""

    __slots__ = ("kind", "w", "p", "observations")

    def __init__(self, kind: str, ridge: float) -> None:
        self.kind = kind
        self.w = [0.0] * FEATURE_DIM
        # Inverse regularised covariance: P0 = I / ridge.
        self.p = [
            [1.0 / ridge if i == j else 0.0 for j in range(FEATURE_DIM)]
            for i in range(FEATURE_DIM)
        ]
        self.observations = 0

    def correction(self, x: List[float]) -> float:
        """The learned residual for a feature vector (0 until trained)."""
        w0, w1, w2, w3, w4, w5, w6, w7 = self.w
        x0, x1, x2, x3, x4, x5, x6, x7 = x
        return (
            0.0 + w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3
            + w4 * x4 + w5 * x5 + w6 * x6 + w7 * x7
        )

    def update(self, x: List[float], residual: float, forgetting: float) -> None:
        """One RLS fold-in of (features, realised residual).

        Every dot product is written out as one left-associative chain
        from ``0.0`` in index order — the additions a sequential
        accumulator performs, without its loop (never builtin ``sum``,
        which is compensated on Python >= 3.12) — so the learned weights
        are the same bits on every supported interpreter.
        """
        if not math.isfinite(residual):
            return
        # k = P x / (lambda + x' P x);  w += k * (y - w'x);  P = (P - k x'P)/lambda
        p = self.p
        x0, x1, x2, x3, x4, x5, x6, x7 = x
        px = [
            0.0 + a * x0 + b * x1 + c * x2 + d * x3
            + e * x4 + f * x5 + g * x6 + h * x7
            for a, b, c, d, e, f, g, h in p
        ]
        q0, q1, q2, q3, q4, q5, q6, q7 = px
        denom = forgetting + (
            0.0 + q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3
            + q4 * x4 + q5 * x5 + q6 * x6 + q7 * x7
        )
        if denom <= 0 or not math.isfinite(denom):
            return
        gain = [pxi / denom for pxi in px]
        error = residual - self.correction(x)
        w = self.w
        w[:] = [wi + gi * error for wi, gi in zip(w, gain)]
        # xp[j] = sum_i P[i][j] * x[i]: column j, accumulated over the rows.
        xp = [
            0.0 + a * x0 + b * x1 + c * x2 + d * x3
            + e * x4 + f * x5 + g * x6 + h * x7
            for a, b, c, d, e, f, g, h in zip(*p)
        ]
        y0, y1, y2, y3, y4, y5, y6, y7 = xp
        for row, gi in zip(p, gain):
            a, b, c, d, e, f, g, h = row
            row[:] = [
                (a - gi * y0) / forgetting,
                (b - gi * y1) / forgetting,
                (c - gi * y2) / forgetting,
                (d - gi * y3) / forgetting,
                (e - gi * y4) / forgetting,
                (f - gi * y5) / forgetting,
                (g - gi * y6) / forgetting,
                (h - gi * y7) / forgetting,
            ]
        self.observations += 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready state (weights, covariance, counters)."""
        return {
            "kind": self.kind,
            "weights": list(self.w),
            "covariance": [list(row) for row in self.p],
            "observations": self.observations,
        }

    @staticmethod
    def from_dict(name: str, payload: object, ridge: float) -> "_ClassPredictor":
        """The predictor :meth:`to_dict` wrote for class ``name``.

        Every key is required and checked: a ``kind`` of olap or oltp,
        exactly :data:`FEATURE_DIM` finite weights, a
        ``FEATURE_DIM`` x ``FEATURE_DIM`` finite covariance and a
        non-negative integer observation count.  Anything else raises a
        :class:`~repro.errors.ConfigurationError` naming the class and the
        key, before a run starts rather than at its first update.
        """

        def fail(key: str, expected: str) -> ConfigurationError:
            return ConfigurationError(
                "learned model class {!r}: {!r} must be {}".format(name, key, expected)
            )

        if not isinstance(payload, dict):
            raise ConfigurationError(
                "learned model class {!r} must be an object".format(name)
            )
        kind = payload.get("kind")
        if kind not in ("olap", "oltp"):
            raise fail("kind", "'olap' or 'oltp'")
        vector = "a list of {} finite numbers".format(FEATURE_DIM)
        weights = _finite_vector(payload.get("weights"))
        if weights is None:
            raise fail("weights", vector)
        covariance = payload.get("covariance")
        rows = (
            [_finite_vector(row) for row in covariance]
            if isinstance(covariance, list)
            else []
        )
        if len(rows) != FEATURE_DIM or None in rows:
            raise fail("covariance", "{} rows, each {}".format(FEATURE_DIM, vector))
        observations = payload.get("observations")
        if (
            not isinstance(observations, int)
            or isinstance(observations, bool)
            or observations < 0
        ):
            raise fail("observations", "a non-negative integer")
        predictor = _ClassPredictor(kind, ridge)
        predictor.w = weights
        predictor.p = rows
        predictor.observations = observations
        return predictor


def _finite_vector(values: object) -> Optional[List[float]]:
    """``values`` as :data:`FEATURE_DIM` finite floats (None if it is not)."""
    if not isinstance(values, list) or len(values) != FEATURE_DIM:
        return None
    vector = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        value = float(value)
        if not math.isfinite(value):
            return None
        vector.append(value)
    return vector


def _hyperparameter(hyper: Dict[str, object], key: str, default: float) -> float:
    """One ``hyper`` entry of a model file as a float (``default`` if absent)."""
    value = hyper.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            "learned model hyperparameter {!r} must be a number, got {!r}".format(
                key, value
            )
        )
    return float(value)


class LearnedModelState(NamedTuple):
    """The learned model's :class:`~repro.core.modeling.protocol.ModelState`.

    ``classes`` is the ``(name, kind)`` pairs in name order — one tuple,
    shared by every state taken while the class set is unchanged.
    ``values`` holds, per class in that order, its observation count and
    then its :data:`FEATURE_DIM` weights: one flat array instead of a dict
    of rounded floats per class.
    """

    name: str
    ridge: float
    forgetting: float
    corrupted: bool
    classes: Tuple[Tuple[str, str], ...]
    values: "array[float]"

    #: The learned model has no single OLTP slope.
    slope = None

    @property
    def observations(self) -> int:
        """Total residual observations folded in across classes."""
        return int(sum(self.values[:: FEATURE_DIM + 1]))

    def to_dict(self) -> Dict[str, object]:
        """The ``describe()`` dict: hyperparameters plus per-class weights,
        rounded to 9 places."""
        stride = FEATURE_DIM + 1
        values = self.values
        classes = {}
        total = 0
        for start, (name, kind) in zip(range(0, len(values), stride), self.classes):
            observations = int(values[start])
            total += observations
            classes[name] = {
                "kind": kind,
                "observations": observations,
                "weights": [round(w, 9) for w in values[start + 1 : start + stride]],
            }
        return {
            "name": self.name,
            "observations": total,
            "ridge": self.ridge,
            "forgetting": self.forgetting,
            "corrupted": self.corrupted,
            "classes": classes,
        }


class LearnedPerformanceModel:
    """Per-class online ridge/RLS residual model over the analytic base.

    Satisfies the :class:`~repro.core.modeling.protocol.PerformanceModel`
    protocol.  Train online (every :meth:`observe` is one prequential
    update), offline from exported telemetry
    (:func:`repro.core.modeling.training.fit_from_records`), or load a
    previously trained state with :meth:`from_dict` / ``repro run --model
    learned:model.json``.
    """

    name = "learned"

    def __init__(
        self,
        prior_slope: float = -4.2e-6,
        ridge: float = 4.0,
        forgetting: float = 0.995,
    ) -> None:
        if not 0 < ridge < math.inf:
            raise ConfigurationError(
                "'ridge' must be positive and finite, got {!r}".format(ridge)
            )
        if not 0 < forgetting <= 1:
            raise ConfigurationError("forgetting must be in (0, 1]")
        self.ridge = ridge
        self.forgetting = forgetting
        #: Fixed analytic base for residual learning: the learned weights
        #: always correct the same reference predictions they were trained
        #: against.
        self._base_oltp = OLTPResponseTimeModel(prior_slope=prior_slope)
        self._classes: Dict[str, _ClassPredictor] = {}
        #: ``(name, kind)`` of every class in name order, for :meth:`state`
        #: (None once a class is added, until the next state is taken).
        self._class_keys: Optional[Tuple[Tuple[str, str], ...]] = ()
        self._pending: Optional[MixSnapshot] = None
        self._corrupted = False
        #: :func:`_mix_features` by class name for ``_featured_mix`` — one
        #: snapshot serves every candidate limit of an interval (and the
        #: next interval's ``observe``), so they are derived once each.
        self._featured_mix: Optional[MixSnapshot] = None
        self._features_by_class: Dict[str, Tuple[float, float, float, float]] = {}

    def _mix_features_of(
        self, mix: Optional[MixSnapshot], class_name: str
    ) -> Tuple[float, float, float, float]:
        """:func:`_mix_features`, kept for as long as ``mix`` is current.

        Keyed by the snapshot's identity (snapshots are immutable and the
        reference held here keeps the identity from being reused): a new
        snapshot, equal or not, starts from nothing.
        """
        if mix is not self._featured_mix:
            self._featured_mix = mix
            self._features_by_class = {}
        features = self._features_by_class.get(class_name)
        if features is None:
            features = self._features_by_class[class_name] = _mix_features(
                mix, class_name
            )
        return features

    # ------------------------------------------------------------------
    # Base (analytic) prediction
    # ------------------------------------------------------------------
    def _base_predict(
        self, kind: str, value: float, current_limit: float, new_limit: float
    ) -> float:
        if kind == "olap":
            return OLAPVelocityModel.predict(value, current_limit, new_limit)
        return self._base_oltp.predict(value, current_limit, new_limit)

    def _predictor(self, name: str, kind: str) -> _ClassPredictor:
        predictor = self._classes.get(name)
        if predictor is None:
            predictor = _ClassPredictor(kind, self.ridge)
            self._classes[name] = predictor
            self._class_keys = None
        return predictor

    # ------------------------------------------------------------------
    # PerformanceModel protocol
    # ------------------------------------------------------------------
    def predict(
        self,
        status: "ClassStatus",
        proposed_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Analytic base plus the learned, clamped residual correction.

        The solver asks ~40 times per control interval, so the clamps are
        comparisons rather than ``max``/``min`` calls.  ``max(a, b)`` is
        ``b if b > a else a`` and ``min(a, b)`` is ``b if b < a else a``
        — NaN and signed zeros included — and each comparison below keeps
        that operand order.
        """
        service_class = status.service_class
        kind = service_class.kind
        value = status.current_value
        current_limit = status.current_limit
        predicted = self._base_predict(kind, value, current_limit, proposed_limit)
        if self._corrupted:
            return float("nan")
        predictor = self._classes.get(service_class.name)
        if predictor is not None and predictor.observations:
            correction = predictor.correction(
                _features(
                    value,
                    current_limit,
                    proposed_limit,
                    self._mix_features_of(mix, service_class.name),
                )
            )
            if not math.isfinite(correction):
                correction = 0.0
            # The correction stays within a ratio of the base prediction's
            # magnitude (with an absolute floor): [-bound, bound].
            bound = _MAX_CORRECTION_RATIO * abs(predicted)
            if _MIN_CORRECTION_SCALE > bound:
                bound = _MIN_CORRECTION_SCALE
            if -bound > correction:
                correction = -bound
            if bound < correction:
                correction = bound
            predicted += correction
        if kind == "olap":  # a velocity, in [0, 1]
            if not predicted < 1.0:
                predicted = 1.0
            return predicted if predicted > 0.0 else 0.0
        return 1e-3 if 1e-3 > predicted else predicted  # a response time

    def observe(self, observation: IntervalObservation) -> None:
        """One prequential update per control interval.

        Pairs the *previous* interval's mix (the features available when
        the prediction would have been made) with the values realised now,
        under the limits that were active in between — exactly the
        pairing the telemetry layer's prediction-error bookkeeping uses.
        """
        previous = self._pending
        self._pending = observation.mix
        if previous is None:
            return
        for state in observation.mix.classes:
            before = previous.get(state.name)
            if before is None or before.value is None or state.value is None:
                continue
            # The limit active while ``state.value`` was realised is the
            # one carried by the *current* snapshot (installed after the
            # previous observation).
            base = self._base_predict(
                state.kind, before.value, before.limit, state.limit
            )
            x = _features(
                before.value,
                before.limit,
                state.limit,
                self._mix_features_of(previous, state.name),
            )
            self._predictor(state.name, state.kind).update(
                x, state.value - base, self.forgetting
            )

    def state(self) -> LearnedModelState:
        """Immutable snapshot: hyperparameters, per-class counts and weights."""
        keys = self._class_keys
        if keys is None:
            keys = self._class_keys = tuple(
                sorted((name, p.kind) for name, p in self._classes.items())
            )
        values: List[float] = []
        for name, _ in keys:
            predictor = self._classes[name]
            values.append(predictor.observations)
            values.extend(predictor.w)
        return tuple.__new__(
            LearnedModelState,
            (
                self.name,
                self.ridge,
                self.forgetting,
                self._corrupted,
                keys,
                array("d", values),
            ),
        )

    def describe(self) -> Dict[str, object]:
        """JSON-safe snapshot: hyperparameters plus per-class weights."""
        return self.state().to_dict()

    def corrupt(self, mode: str = "regression") -> None:
        """Poison the learned state: every prediction becomes NaN."""
        if mode != "regression":
            raise ConfigurationError(
                "LearnedPerformanceModel knows no corruption mode {!r}".format(mode)
            )
        self._corrupted = True

    def reset(self) -> None:
        """Drop all learned state (weights, pending pairing, corruption)."""
        self._classes = {}
        self._class_keys = ()
        self._pending = None
        self._corrupted = False
        self._featured_mix = None
        self._features_by_class = {}

    @property
    def observations(self) -> int:
        """Total residual observations folded in across classes."""
        return sum(p.observations for p in self._classes.values())

    # ------------------------------------------------------------------
    # Serialisation (``repro train`` output / ``--model learned:PATH``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Full state as a JSON-serialisable dict (``model.json``)."""
        return {
            "format": 1,
            "name": self.name,
            "hyper": {
                "prior_slope": self._base_oltp.slope,
                "ridge": self.ridge,
                "forgetting": self.forgetting,
            },
            "classes": {
                name: predictor.to_dict()
                for name, predictor in sorted(self._classes.items())
            },
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "LearnedPerformanceModel":
        """Reconstruct a trained model from :meth:`to_dict` output."""
        if (
            not isinstance(payload, dict)
            or payload.get("format") != 1
            or payload.get("name") != "learned"
        ):
            raise ConfigurationError(
                "not a learned-model file (expected format=1, name='learned')"
            )
        hyper = payload.get("hyper") or {}
        classes = payload.get("classes") or {}
        if not isinstance(hyper, dict) or not isinstance(classes, dict):
            raise ConfigurationError(
                "learned model 'hyper' and 'classes' must be objects"
            )
        model = LearnedPerformanceModel(
            prior_slope=_hyperparameter(hyper, "prior_slope", -4.2e-6),
            ridge=_hyperparameter(hyper, "ridge", 4.0),
            forgetting=_hyperparameter(hyper, "forgetting", 0.995),
        )
        for name, state in classes.items():
            model._classes[name] = _ClassPredictor.from_dict(name, state, model.ridge)
        model._class_keys = None
        return model


class OracleModelState(NamedTuple):
    """The oracle's :class:`~repro.core.modeling.protocol.ModelState`."""

    name: str
    corrupted: bool

    #: Persistence has no slope and learns from nothing.
    slope = None
    observations = 0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "observations": 0, "corrupted": self.corrupted}


class OracleLastValueModel:
    """Persistence baseline: predicts the metric simply stays put.

    A strong naive forecaster (and therefore a fair floor for prediction
    error), but blind to the control knob — the solver sees the same
    outcome for every allocation, so its plans degenerate to the fallback
    split.  That contrast is the point of carrying it in the ablation.
    """

    name = "oracle"

    def __init__(self) -> None:
        self._state = OracleModelState(self.name, False)

    def predict(
        self,
        status: "ClassStatus",
        proposed_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        if self._state.corrupted:
            return float("nan")
        if status.service_class.kind == "olap":
            return max(0.0, min(1.0, status.current_value))
        return max(status.current_value, 1e-3)

    def observe(self, observation: IntervalObservation) -> None:
        pass

    def state(self) -> "OracleModelState":
        """One object until :meth:`corrupt` or :meth:`reset`."""
        return self._state

    def describe(self) -> Dict[str, object]:
        return self.state().to_dict()

    def corrupt(self, mode: str = "regression") -> None:
        self._state = OracleModelState(self.name, True)

    def reset(self) -> None:
        self._state = OracleModelState(self.name, False)
