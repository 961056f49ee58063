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
classes may consume, so ``s`` is negative.  We maintain ``s`` online with an
exponentially forgetting least-squares estimator seeded by a calibration
prior, which is the natural "regression" reading of the paper for a running
controller.

:class:`PaperAnalyticModel` packages the pair behind the
:class:`~repro.core.modeling.protocol.PerformanceModel` protocol — it is
the default model everywhere, and its arithmetic is pinned bit-identical
to the golden regression data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.modeling.protocol import IntervalObservation, MixSnapshot
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.solver import ClassStatus

#: Factor by which the online slope estimate may drift from the calibrated
#: prior in either direction.  Interval-to-interval (Δ limit, Δ response)
#: pairs are noisy and lag-corrupted — the response of a closed-loop system
#: is measured over a window straddling the change — so unconstrained
#: regression reliably drives the slope to zero, which blinds the solver to
#: the OLTP class entirely.  The clamp keeps the estimate physical while
#: still letting calibration error be corrected severalfold.
_SLOPE_DRIFT_FACTOR = 3.0

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

    Parameters
    ----------
    prior_slope:
        Initial ``s`` (seconds per timeron of OLTP class limit; negative).
    prior_weight:
        How many unit-variance pseudo-observations the prior is worth; the
        larger, the slower online data overrides calibration.
    forgetting:
        Exponential forgetting factor in (0, 1]; 1 = ordinary least squares.
    """

    def __init__(
        self,
        prior_slope: float = -8.0e-6,
        prior_weight: float = 4.0,
        forgetting: float = 0.9,
    ) -> None:
        if prior_slope >= 0:
            raise ConfigurationError(
                "OLTP slope must be negative (more OLTP reservation -> "
                "lower response time); got {}".format(prior_slope)
            )
        if prior_weight <= 0:
            raise ConfigurationError("prior_weight must be positive")
        if not 0 < forgetting <= 1:
            raise ConfigurationError("forgetting must be in (0, 1]")
        self.forgetting = forgetting
        self.prior_slope = prior_slope
        self.prior_weight = prior_weight
        self.reset()

    def reset(self) -> None:
        """Restore the freshly calibrated state (undoes any corruption)."""
        # Seed the normal equations so that slope == prior initially.  The
        # pseudo-observations are scaled to a representative delta of 1000
        # timerons so real observations have comparable leverage.
        pseudo_delta = 1000.0
        self._sxx = self.prior_weight * pseudo_delta * pseudo_delta
        self._sxy = self.prior_weight * pseudo_delta * (self.prior_slope * pseudo_delta)
        self._observations = 0

    def corrupt(self, mode: str = "regression") -> None:
        """Deliberately break the regression state (fault-injection seam).

        ``"regression"`` zeroes the normal equations' second moment, so the
        slope computation divides by zero — exactly the kind of broken
        internal state an invariant check must survive *and* report.
        """
        if mode != "regression":
            raise ConfigurationError(
                "OLTPResponseTimeModel knows no corruption mode {!r}".format(mode)
            )
        self._sxx = 0.0

    def slope_bounds(self) -> Tuple[float, float]:
        """Public clamp band ``(steepest, shallowest)`` for the slope.

        The live :attr:`slope` is guaranteed to fall in this closed band;
        the validation harness verifies that contract at every interval.
        """
        return (
            self.prior_slope * _SLOPE_DRIFT_FACTOR,
            self.prior_slope / _SLOPE_DRIFT_FACTOR,
        )

    @property
    def slope(self) -> float:
        """Current estimate of ``s``: negative, clamped near the prior."""
        raw = self._sxy / self._sxx
        steepest, shallowest = self.slope_bounds()
        return min(max(raw, steepest), shallowest)

    @property
    def observations(self) -> int:
        """Real (non-prior) observations folded in so far."""
        return self._observations

    def observe(self, delta_limit: float, delta_response_time: float) -> None:
        """Fold in one (Δ limit, Δ response time) pair from the last interval.

        Tiny limit deltas carry no slope information (the response change is
        then all noise) and are skipped.
        """
        if abs(delta_limit) < _MIN_LIMIT:
            return
        self._sxx = self.forgetting * self._sxx + delta_limit * delta_limit
        self._sxy = self.forgetting * self._sxy + delta_limit * delta_response_time
        self._observations += 1

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
        """Fold in the planner's (Δ limit, Δ response) pair, when present.

        The planner only attaches ``oltp_delta`` when online regression is
        configured and a valid pair exists, so the default (offline
        constant) configuration leaves the slope untouched.
        """
        if observation.oltp_delta is not None:
            self.oltp.observe(*observation.oltp_delta)

    def describe(self) -> Dict[str, object]:
        """JSON-safe snapshot of the regression state."""
        try:
            slope: Optional[float] = self.oltp.slope
        except ZeroDivisionError:  # corrupted regression state
            slope = None
        steepest, shallowest = self.oltp.slope_bounds()
        return {
            "name": self.name,
            "slope": slope,
            "observations": self.oltp.observations,
            "prior_slope": self.oltp.prior_slope,
            "slope_bounds": [steepest, shallowest],
        }

    def corrupt(self, mode: str = "regression") -> None:
        """Break the OLTP regression through its public seam."""
        self.oltp.corrupt(mode)

    def reset(self) -> None:
        """Restore the freshly calibrated regression state."""
        self.oltp.reset()

    def slope_bounds(self) -> Tuple[float, float]:
        """Delegate the public clamp-band contract to the OLTP model."""
        return self.oltp.slope_bounds()
