"""Metric collection and reporting for experiments."""

from repro import lazy_exports

_EXPORTS = {
    "ControlIntervalRecord": "repro.metrics.telemetry",
    "DispatcherClassTelemetry": "repro.metrics.telemetry",
    "MetricsCollector": "repro.metrics.collector",
    "PeriodClassMetrics": "repro.metrics.collector",
    "PredictionErrorSummary": "repro.metrics.telemetry",
    "PredictionTelemetry": "repro.metrics.telemetry",
    "SolverTelemetry": "repro.metrics.telemetry",
    "TelemetryStore": "repro.metrics.telemetry",
    "Column": "repro.metrics.report",
    "Table": "repro.metrics.report",
    "attainment_table": "repro.metrics.report",
    "period_table": "repro.metrics.report",
    "plan_table": "repro.metrics.report",
    "prediction_error_table": "repro.metrics.report",
    "run_tables": "repro.metrics.report",
    "series_table": "repro.metrics.report",
    "span_tables": "repro.metrics.report",
    "telemetry_tables": "repro.metrics.report",
    "result_to_dict": "repro.metrics.export",
    "result_to_json": "repro.metrics.export",
    "result_to_csv": "repro.metrics.export",
    "save_result": "repro.metrics.export",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
