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

from repro import lazy_exports

_EXPORTS = {
    "ClassMixState": "repro.core.modeling.protocol",
    "IntervalObservation": "repro.core.modeling.protocol",
    "LearnedPerformanceModel": "repro.core.modeling.learned",
    "MixSnapshot": "repro.core.modeling.protocol",
    "ModelState": "repro.core.modeling.protocol",
    "MODEL_NAMES": "repro.core.modeling.registry",
    "OLAPVelocityModel": "repro.core.modeling.analytic",
    "OLTPResponseTimeModel": "repro.core.modeling.analytic",
    "OracleLastValueModel": "repro.core.modeling.learned",
    "PaperAnalyticModel": "repro.core.modeling.analytic",
    "PerformanceModel": "repro.core.modeling.protocol",
    "evaluate_on_records": "repro.core.modeling.training",
    "fit_from_records": "repro.core.modeling.training",
    "load_model": "repro.core.modeling.training",
    "load_telemetry_records": "repro.core.modeling.training",
    "make_model": "repro.core.modeling.registry",
    "observations_from_records": "repro.core.modeling.training",
    "parse_model_spec": "repro.core.modeling.registry",
    "save_model": "repro.core.modeling.training",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
