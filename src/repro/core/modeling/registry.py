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

from typing import Optional, Tuple

from repro.core.modeling.analytic import (
    OLTP_SLOPE_PRIOR,
    OLTPResponseTimeModel,
    PaperAnalyticModel,
)
from repro.errors import ConfigurationError

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


def make_model(spec: str):
    """Construct the model a spec names.

    A ``learned:<path>`` spec loads trained weights — the file's stored
    hyperparameters win over the calibrated defaults so predictions match
    what was trained.
    """
    base, argument = parse_model_spec(spec)
    if base == "paper":
        return PaperAnalyticModel(OLTPResponseTimeModel(OLTP_SLOPE_PRIOR))
    from repro.core.modeling.learned import LearnedPerformanceModel, OracleLastValueModel

    if base == "oracle":
        return OracleLastValueModel()
    if argument is not None:
        from repro.core.modeling.training import load_model

        return load_model(argument)
    return LearnedPerformanceModel()
