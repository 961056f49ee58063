"""Tests for markdown report generation."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.reportgen import (
    generate_report,
    quick_report_config,
    write_report,
)


@pytest.fixture(scope="module")
def tiny_report():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=15.0),
    )
    return generate_report(config=config)


def test_report_contains_all_sections(tiny_report):
    assert "# Generated experiment report" in tiny_report
    assert "No class control (Figure 4)" in tiny_report
    assert "DB2 QP priority control (Figure 5)" in tiny_report
    assert "Query Scheduler (Figure 6)" in tiny_report
    assert "Figure 7" in tiny_report
    assert "Controller telemetry" in tiny_report


def test_report_tables_have_period_rows(tiny_report):
    # Two periods per section, four sections (3 figures + plans).  Period
    # rows start the line with the period number; telemetry tables start
    # with a class name, so the anchor keeps them out of the count.
    lines = tiny_report.splitlines()
    assert sum(1 for line in lines if line.startswith("| 1 |")) == 4
    assert sum(1 for line in lines if line.startswith("| 2 |")) == 4
    assert tiny_report.count("### Attainment") == 3


def test_report_telemetry_balance(tiny_report):
    # The dispatcher accounting table appears and the run recorded at
    # least one control interval.
    assert "### Dispatcher balance" in tiny_report
    assert "control intervals recorded" in tiny_report


def test_report_mentions_misses_or_values(tiny_report):
    # Values are rendered to 3 decimals in the figure tables.
    import re
    assert re.search(r"\| 0\.\d{3}", tiny_report)


def test_write_report(tmp_path):
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=1),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    path = str(tmp_path / "report.md")
    text = write_report(path, config=config)
    with open(path) as handle:
        assert handle.read() == text


def test_quick_config_is_valid():
    config = quick_report_config()
    assert config.scale.num_periods == 9


def _sections(text, heading, is_row, split):
    """``{title: rows of cell strings}`` of every table in ``text``."""
    sections, title = {}, None
    for line in text.splitlines():
        if heading(line):
            title = line.lstrip("# ")
        elif title is not None and is_row(line):
            sections.setdefault(title, []).append(
                [cell.strip() for cell in split(line)]
            )
    return sections


def test_terminal_and_markdown_sections_carry_the_same_cells(tmp_path, capsys):
    """``repro run`` / ``repro spans`` print and ``repro report`` writes the
    same section functions: same titles, same cell strings, same order."""
    from repro.cli import main

    # the configuration the CLI derives from these scale options
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    report = generate_report(config=config, tracing=True)
    markdown = _sections(
        report[report.index("## Query Scheduler"):],
        heading=lambda line: line.startswith("### "),
        is_row=lambda line: line.startswith("|") and "---" not in line,
        split=lambda line: line.strip("|").split("|"),
    )
    trace = str(tmp_path / "trace.json")
    scale = ["--periods", "2", "--period-seconds", "20", "--control-interval", "10"]
    assert main(["run", "--invariants", "warn", "--trace-events", trace] + scale) == 0
    assert main(["spans", trace]) == 0
    terminal, title = {}, ""
    for line in capsys.readouterr().out.splitlines():
        if " | " in line:
            terminal.setdefault(title, []).append(
                [cell.strip() for cell in line.split("|")]
            )
        elif set(line) != {"-"}:  # not the rule under the header
            title = line
    shared = sorted(set(terminal) & set(markdown))
    assert shared == [
        "Attainment",
        "Class cost limits (period means, timerons)",
        "Per-class phase breakdown (sim seconds)",
        "Per-period goal metrics",
        "Top 5 slowest queue waits",
    ]
    for title in shared:
        assert terminal[title] == markdown[title], title
