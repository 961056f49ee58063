"""Documentation consistency checks.

Docs drift silently; these tests pin the claims that are cheap to verify
mechanically: referenced files exist, documented constants match the code,
and the README's command lines are real.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(relpath):
    with open(os.path.join(REPO, relpath)) as handle:
        return handle.read()


def test_required_documents_exist():
    for relpath in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/API.md",
        "docs/TUTORIAL.md",
        "docs/CALIBRATION.md",
        "docs/VALIDATION.md",
        "docs/BENCHMARKS.md",
        "docs/MODELS.md",
    ):
        assert os.path.exists(os.path.join(REPO, relpath)), relpath


def test_design_md_references_existing_modules():
    text = read("DESIGN.md")
    for module in re.findall(r"`repro\.([a-z_.]+)`", text):
        path = os.path.join(REPO, "src", "repro", *module.split("."))
        assert (
            os.path.exists(path + ".py") or os.path.isdir(path)
        ), "DESIGN.md references missing module repro.{}".format(module)


def test_experiments_md_references_existing_benches():
    text = read("EXPERIMENTS.md")
    for bench in set(re.findall(r"bench_[a-z0-9_]+\.py", text)):
        assert os.path.exists(
            os.path.join(REPO, "benchmarks", bench)
        ), "EXPERIMENTS.md references missing {}".format(bench)


def test_readme_examples_exist():
    text = read("README.md")
    for example in set(re.findall(r"examples/[a-z_]+\.py", text)):
        assert os.path.exists(os.path.join(REPO, example)), example


def test_calibration_doc_constants_match_code():
    from repro.config import default_config

    config = default_config()
    text = read("docs/CALIBRATION.md")
    assert str(int(config.optimizer.cpu_timerons_per_second)) in text  # 600
    assert str(int(config.optimizer.io_timerons_per_second)) in text  # 240
    assert "{:.1e}".format(abs(config.planner.oltp_slope_prior)) in text.replace(
        "-", ""
    ) or "4.2e-6" in text
    assert str(int(config.overload.knee_cost // 1000)) in text  # 26


def test_design_md_confirms_paper_match():
    """DESIGN.md must state the paper-text check outcome (system prompt
    requirement: note a mismatch at the top, otherwise confirm)."""
    text = read("DESIGN.md")
    assert "Paper-text check" in text
    assert "matches the target paper" in text


def test_paper_goals_quoted_consistently():
    """The Section 4 goals appear identically in code and docs."""
    from repro.config import PAPER_CLASSES

    readme = read("README.md")
    assert PAPER_CLASSES[0][2] == 0.40
    assert PAPER_CLASSES[1][2] == 0.60
    assert PAPER_CLASSES[2][2] == 0.25
    assert "0.25" in read("EXPERIMENTS.md")
    assert "0.40 / 0.60" in read("EXPERIMENTS.md")


def test_quoted_subcommands_are_registered():
    """Every ``python -m repro <sub>`` / ```repro <sub>``` the docs quote
    is a subcommand the parser knows (``<sub> --help`` exits 0, not 2)."""
    from repro.cli import build_parser

    parser = build_parser()
    quoted = re.compile(r"(?:python3? -m repro|`repro) ([a-z][a-z-]*)")
    documents = ["README.md", "EXPERIMENTS.md", "DESIGN.md"] + glob.glob(
        os.path.join(REPO, "docs", "*.md")
    )
    names = {name for document in documents for name in quoted.findall(read(document))}
    assert "run" in names, "the pattern matches nothing"
    for name in sorted(names):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([name, "--help"])
        assert excinfo.value.code == 0, "the docs quote 'repro {}'".format(name)


def test_paper_claims_suite_runs_under_stock_pytest():
    """``benchmarks/`` needs no plugin: two of its fastest files pass with
    the ``benchmark`` fixture's plugin disabled (or absent)."""
    search_path = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search_path)))
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "benchmarks/bench_figure3.py",
            "benchmarks/bench_ablation_interception.py",
            "-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
