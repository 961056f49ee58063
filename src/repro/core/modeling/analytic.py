"""The paper's analytic performance models (Section 3.2).

OLAP classes use the multiplicative velocity model of the prior framework:

    V_i^k = V_i^{k-1} * C_i^k / C_i^{k-1}      (capped at 1)

— a class's velocity scales with its cost limit, because the limit controls
how many of its queries run versus wait.

The OLTP class cannot use that model ("the performance metrics are
different ... the system does not control the OLTP class directly ... OLAP
queries tend to be I/O intensive whereas OLTP queries are CPU intensive"),
so the paper fits the *linear* model motivated by Figure 2:

    t^k = t^{k-1} + s * (C^k - C^{k-1})

where ``C`` is the OLTP class's (virtual) cost limit and ``s`` a constant
obtained by linear regression.  Raising the OLTP limit shrinks what the OLAP
classes may consume, so ``s`` is negative.  As in the paper, ``s`` is fitted
once, offline, on the Figure 2 experiment (``repro calibrate``) and held
constant while the controller runs; a model that learns online is the
``learned`` one.

:class:`PaperAnalyticModel` packages the pair behind the
:class:`~repro.core.modeling.protocol.PerformanceModel` protocol — it is
the default model everywhere, and its arithmetic is pinned bit-identical
to the golden regression data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.core.modeling.protocol import IntervalObservation, MixSnapshot
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.solver import ClassStatus

#: Guard for divisions by a previous cost limit of (near) zero.
_MIN_LIMIT = 1.0


class OLAPVelocityModel:
    """The paper's multiplicative velocity model for directly controlled
    (OLAP) classes."""

    @staticmethod
    def predict(previous_velocity: float, previous_limit: float, new_limit: float) -> float:
        """Predicted velocity at the next interval under ``new_limit``.

        Clamped to [0, 1] exactly as in the paper's piecewise definition.
        """
        base = max(0.0, min(1.0, previous_velocity))
        denominator = max(previous_limit, _MIN_LIMIT)
        predicted = base * (new_limit / denominator)
        if predicted > 1.0:
            return 1.0
        if predicted < 0.0:
            return 0.0
        return predicted


class OLTPResponseTimeModel:
    """Linear delta model for the indirectly controlled (OLTP) class.

    ``prior_slope`` is the calibrated ``s`` (seconds per timeron of OLTP
    class limit; negative), kept as the constant :attr:`slope`.
    """

    def __init__(self, prior_slope: float = -8.0e-6) -> None:
        if not prior_slope < 0:
            raise ConfigurationError(
                "OLTP slope must be negative (more OLTP reservation -> "
                "lower response time); got {}".format(prior_slope)
            )
        self.slope = prior_slope

    def predict(
        self,
        previous_response_time: float,
        previous_limit: float,
        new_limit: float,
    ) -> float:
        """Predicted average response time under ``new_limit``.

        Floored at a millisecond: the model is a local linearisation and a
        large extrapolated limit increase must not predict negative time.
        """
        predicted = previous_response_time + self.slope * (new_limit - previous_limit)
        return max(predicted, 1e-3)


class PaperModelState(NamedTuple):
    """The paper model's :class:`~repro.core.modeling.protocol.ModelState`:
    its name and its one parameter, the calibrated OLTP slope."""

    name: str
    slope: float

    #: The paper model learns nothing, so it counts no observations.
    observations = None

    def to_dict(self) -> Dict[str, object]:
        """``{"name": ..., "slope": ...}``."""
        return {"name": self.name, "slope": self.slope}


class PaperAnalyticModel:
    """The paper's model pair behind the :class:`PerformanceModel` protocol.

    Dispatches on class kind exactly as the pre-seam solver did — the
    velocity ratio-model for OLAP classes, the linear delta model for the
    OLTP class — so default-model runs stay bit-identical to the golden
    regression data.  The mix is ignored (the paper's models are
    single-knob extrapolations), which is precisely the weakness the
    learned models address.
    """

    name = "paper"

    def __init__(self, oltp_model: Optional[OLTPResponseTimeModel] = None) -> None:
        self.oltp = oltp_model if oltp_model is not None else OLTPResponseTimeModel()
        self._state = PaperModelState(self.name, self.oltp.slope)

    # ------------------------------------------------------------------
    # PerformanceModel protocol
    # ------------------------------------------------------------------
    def predict(
        self,
        status: "ClassStatus",
        proposed_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Velocity model for OLAP classes, linear delta model for OLTP."""
        if status.service_class.kind == "olap":
            return OLAPVelocityModel.predict(
                status.current_value, status.current_limit, proposed_limit
            )
        return self.oltp.predict(
            status.current_value, status.current_limit, proposed_limit
        )

    def observe(self, observation: IntervalObservation) -> None:
        """Nothing to learn: the slope is the calibrated constant."""

    def state(self) -> PaperModelState:
        """The model's one parameter; one object until the slope changes."""
        state = self._state
        if state.slope is not self.oltp.slope:
            state = self._state = PaperModelState(self.name, self.oltp.slope)
        return state

    def describe(self) -> Dict[str, object]:
        """JSON-safe snapshot of the model's one parameter."""
        return self.state().to_dict()

    def corrupt(self, mode: str = "regression") -> None:
        """Refused: the paper model holds no online state to corrupt."""
        raise ConfigurationError(
            "the paper model holds no online state to corrupt; "
            "corrupt a 'learned' model instead"
        )

    def reset(self) -> None:
        """Nothing to restore: the model never departs from calibration."""
