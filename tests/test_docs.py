"""Documentation consistency checks.

Docs drift silently; these tests pin the claims that are cheap to verify
mechanically: referenced files exist, documented constants match the code,
and the README's command lines are real.
"""

import glob
import os
import re

import pytest

from tests.conftest import run_from_checkout

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


@pytest.mark.slow
def test_every_example_runs_to_completion(unchanged_checkout):
    examples = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    assert examples
    for example in examples:
        done = run_from_checkout([example])
        assert done.returncode == 0, "{}\n{}".format(example, done.stderr)


def test_calibration_doc_constants_match_code():
    from repro.config import default_config
    from repro.core.modeling.analytic import OLTP_SLOPE_PRIOR
    from repro.dbms.optimizer import CPU_TIMERONS_PER_SECOND, IO_TIMERONS_PER_SECOND

    text = read("docs/CALIBRATION.md")
    assert str(int(CPU_TIMERONS_PER_SECOND)) in text  # 600
    assert str(int(IO_TIMERONS_PER_SECOND)) in text  # 240
    assert "{:.1e}".format(abs(OLTP_SLOPE_PRIOR)) in text.replace(
        "-", ""
    ) or "4.2e-6" in text
    assert str(int(default_config().overload.knee_cost // 1000)) in text  # 26


def quoted_config_paths(text):
    """Every dotted config path ``text`` quotes after ``repro sweep`` and
    every key of a ``control:`` block, inline (``control: {k: v}``) or
    indented below it (``model`` is the scenario sugar for
    ``planner.model``)."""
    path = r"[a-z_][a-z0-9_]*(?:\.[a-z_][a-z0-9_]*)*"
    text = text.replace("\\\n", " ")
    keys = re.findall(r"repro sweep (" + path + r")\b", text)
    for inline in re.findall(r"control: \{([^}]*)\}", text):
        keys += re.findall(r"(" + path + r"):", inline)
    lines = text.splitlines()
    for index, line in enumerate(lines):
        block = re.match(r"(\s*)control:\s*(#.*)?$", line)
        if not block:
            continue
        for below in lines[index + 1:]:
            if not below.strip() or len(below) - len(below.lstrip()) <= len(block.group(1)):
                break
            entry = re.match(r"\s*(" + path + r"):", below)
            if entry:
                keys.append(entry.group(1))
    return ["planner.model" if key == "model" else key for key in keys]


def test_docs_quote_only_live_config_paths():
    """A path the docs tell a reader to sweep or override is one the
    config tree has: each resolves through ``set_config_field``."""
    from repro.config import default_config
    from repro.experiments.sensitivity import set_config_field

    config = default_config()
    documents = ["README.md"] + sorted(glob.glob(os.path.join(REPO, "docs", "*.md")))
    quoted = [
        (os.path.relpath(os.path.join(REPO, document), REPO), path)
        for document in documents
        for path in quoted_config_paths(read(document))
    ]
    assert {"planner.model", "optimizer.noise_sigma"} <= {p for _, p in quoted}
    for document, path in quoted:
        value = config
        for name in path.split("."):
            value = getattr(value, name, None)
        try:
            set_config_field(config, path, value)
        except Exception as exc:
            pytest.fail("{} quotes config path {!r}: {}".format(document, path, exc))


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


def quoted_commands():
    """``(document, subcommand, flags)`` for every ``python -m repro <sub>
    ...`` / ```repro <sub> ...``` the docs quote: the flags are the
    ``--options`` up to the end of the span or line (a ``\\`` continues
    it), before a shell comment, ``&&``, ``;`` or a pipe."""
    quoted = re.compile(r"(?:python3? -m repro|`repro) ([a-z][a-z-]*)([^\n`]*)")
    documents = ["README.md", "EXPERIMENTS.md", "DESIGN.md"] + glob.glob(
        os.path.join(REPO, "docs", "*.md")
    )
    for document in documents:
        text = read(document).replace("\\\n", " ")
        for name, rest in quoted.findall(text):
            rest = re.split(r"\s#|&&|;|\s\|\s", rest)[0]
            yield document, name, set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", rest))


def test_quoted_subcommands_are_registered():
    """Every ``python -m repro <sub>`` / ```repro <sub>``` the docs quote
    is a subcommand the parser knows (``<sub> --help`` exits 0, not 2),
    and every ``--flag`` quoted after it is an option of that subcommand."""
    from repro.cli import build_parser

    parser = build_parser()
    commands = list(quoted_commands())
    names = {name for _, name, _ in commands}
    assert "run" in names, "the pattern matches nothing"
    assert any(flags for _, _, flags in commands), "no quoted flag found"
    for name in sorted(names):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([name, "--help"])
        assert excinfo.value.code == 0, "the docs quote 'repro {}'".format(name)
    subparsers = parser._subparsers._group_actions[0].choices
    for document, name, flags in commands:
        options = {o for a in subparsers[name]._actions for o in a.option_strings}
        assert flags <= options, "{} quotes 'repro {} {}'".format(
            os.path.relpath(document, REPO), name, " ".join(sorted(flags - options))
        )


def test_validation_core_suite_table_is_the_registry():
    """docs/VALIDATION.md's core-suite table lists ``core_invariants`` of a
    Query Scheduler deployment: same names, same order, same severities."""
    from repro.experiments.runner import build_bundle, make_controller
    from repro.validation import ControlLoopWorld, core_invariants

    text = read("docs/VALIDATION.md")
    section = text[text.index("## The core suite"):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `([a-z_]+)` \| ([A-Z]+) \|", section, re.MULTILINE)
    bundle = build_bundle()
    make_controller(bundle, "qs")
    registry = core_invariants(ControlLoopWorld.from_bundle(bundle))
    assert rows == [(i.name, i.severity.name) for i in registry]


def test_paper_claims_suite_runs_under_stock_pytest():
    """``benchmarks/`` needs no plugin: two of its fastest files pass with
    the ``benchmark`` fixture's plugin disabled (or absent)."""
    completed = run_from_checkout([
        "-m", "pytest",
        "benchmarks/bench_figure3.py",
        "benchmarks/bench_ablation_interception.py",
        "-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
    ])
    assert completed.returncode == 0, completed.stdout + completed.stderr
