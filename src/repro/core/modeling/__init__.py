"""The performance-modeling layer (ROADMAP item 4).

Everything the control plane needs to predict per-class goal metrics
under candidate cost limits, behind one structural seam:

* :class:`~repro.core.modeling.protocol.PerformanceModel` — the protocol
  (predict / observe / state / describe / corrupt / reset), the immutable
  :class:`ModelState` a record keeps, plus the
  :class:`MixSnapshot` and :class:`IntervalObservation` input types;
* :class:`~repro.core.modeling.analytic.PaperAnalyticModel` — the paper's
  Section 3.2 pair (OLAP velocity ratio-model, OLTP linear delta model
  with the calibrated constant slope), the bit-identical default;
* :class:`~repro.core.modeling.learned.LearnedPerformanceModel` — per-class
  online ridge/RLS residual predictors conditioned on the full concurrent
  mix, trainable offline from telemetry (``repro train``);
* :class:`~repro.core.modeling.learned.OracleLastValueModel` — the
  persistence baseline for the ablation bench;
* :func:`~repro.core.modeling.registry.make_model` — spec strings
  (``"paper"``, ``"learned[:path]"``, ``"oracle"``) to model objects.
"""

from repro.core.modeling.analytic import (
    _MIN_LIMIT,
    OLAPVelocityModel,
    OLTPResponseTimeModel,
    PaperAnalyticModel,
)
from repro.core.modeling.learned import (
    LearnedPerformanceModel,
    OracleLastValueModel,
)
from repro.core.modeling.protocol import (
    ClassMixState,
    IntervalObservation,
    MixSnapshot,
    ModelState,
    PerformanceModel,
)
from repro.core.modeling.registry import MODEL_NAMES, make_model, parse_model_spec
from repro.core.modeling.training import (
    evaluate_on_records,
    fit_from_records,
    load_model,
    load_telemetry_records,
    observations_from_records,
    save_model,
)

__all__ = [
    "ClassMixState",
    "IntervalObservation",
    "LearnedPerformanceModel",
    "MixSnapshot",
    "ModelState",
    "MODEL_NAMES",
    "OLAPVelocityModel",
    "OLTPResponseTimeModel",
    "OracleLastValueModel",
    "PaperAnalyticModel",
    "PerformanceModel",
    "evaluate_on_records",
    "fit_from_records",
    "load_model",
    "load_telemetry_records",
    "make_model",
    "observations_from_records",
    "parse_model_spec",
    "save_model",
]
