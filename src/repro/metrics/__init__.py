"""Metric collection and reporting for experiments."""

from repro.metrics.collector import MetricsCollector, PeriodClassMetrics
from repro.metrics.export import (
    result_to_csv,
    result_to_dict,
    result_to_json,
    save_result,
)
from repro.metrics.report import (
    format_figure_series,
    format_period_table,
    format_plan_table,
    format_prediction_summary,
    format_summary,
    render_series_chart,
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
    "format_period_table",
    "format_figure_series",
    "format_plan_table",
    "format_prediction_summary",
    "format_summary",
    "render_series_chart",
    "result_to_dict",
    "result_to_json",
    "result_to_csv",
    "save_result",
]
