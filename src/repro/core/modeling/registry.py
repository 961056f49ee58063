"""Model registry: spec strings -> constructed models.

A model spec is ``"paper"``, ``"oracle"``, ``"learned"`` (fresh, learns
online) or ``"learned:<path>"`` (weights pre-trained by ``repro train``).
The spec string is what travels through configuration —
``PlannerConfig.model``, ``repro run --model`` and the scenario
``control: model:`` key all carry it — so experiment specs stay plain
picklable data and the model object itself is only built where the
controller is assembled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.modeling.analytic import OLTPResponseTimeModel, PaperAnalyticModel
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.config import PlannerConfig

#: Base model names the registry understands.
MODEL_NAMES = ("paper", "learned", "oracle")


def parse_model_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split and validate a model spec into ``(base, argument)``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names or
    an argument on a model that takes none.
    """
    if not isinstance(spec, str) or not spec:
        raise ConfigurationError("model spec must be a non-empty string")
    base, _, argument = spec.partition(":")
    if base not in MODEL_NAMES:
        raise ConfigurationError(
            "unknown performance model {!r}; expected one of {}".format(
                base, MODEL_NAMES
            )
        )
    if argument and base != "learned":
        raise ConfigurationError(
            "model {!r} takes no ':<path>' argument (only 'learned' does)".format(base)
        )
    return base, argument or None


def make_model(spec: str, planner: Optional["PlannerConfig"] = None):
    """Construct the model a spec names, calibrated from planner config.

    ``planner`` supplies the calibrated OLTP slope; None falls back to the
    models' own defaults.  A ``learned:<path>`` spec loads trained weights
    — the file's stored hyperparameters win over the run's config so
    predictions match what was trained.
    """
    base, argument = parse_model_spec(spec)
    if base == "paper":
        if planner is not None:
            return PaperAnalyticModel(OLTPResponseTimeModel(planner.oltp_slope_prior))
        return PaperAnalyticModel()
    from repro.core.modeling.learned import LearnedPerformanceModel, OracleLastValueModel

    if base == "oracle":
        return OracleLastValueModel()
    if argument is not None:
        from repro.core.modeling.training import load_model

        return load_model(argument)
    if planner is not None:
        return LearnedPerformanceModel(prior_slope=planner.oltp_slope_prior)
    return LearnedPerformanceModel()
