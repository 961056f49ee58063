"""Metric collection and reporting for experiments."""

from repro.metrics.collector import MetricsCollector, PeriodClassMetrics
from repro.metrics.export import (
    result_to_csv,
    result_to_dict,
    result_to_json,
    save_result,
)
from repro.metrics.report import (
    Column,
    Table,
    attainment_table,
    period_table,
    plan_table,
    prediction_error_table,
    render_series_chart,
    run_tables,
    series_table,
    span_tables,
    telemetry_tables,
)
from repro.metrics.telemetry import (
    ControlIntervalRecord,
    DispatcherClassTelemetry,
    PredictionErrorSummary,
    PredictionTelemetry,
    SolverTelemetry,
    TelemetryStore,
)

__all__ = [
    "ControlIntervalRecord",
    "DispatcherClassTelemetry",
    "MetricsCollector",
    "PeriodClassMetrics",
    "PredictionErrorSummary",
    "PredictionTelemetry",
    "SolverTelemetry",
    "TelemetryStore",
    "Column",
    "Table",
    "attainment_table",
    "period_table",
    "plan_table",
    "prediction_error_table",
    "render_series_chart",
    "run_tables",
    "series_table",
    "span_tables",
    "telemetry_tables",
    "result_to_dict",
    "result_to_json",
    "result_to_csv",
    "save_result",
]
