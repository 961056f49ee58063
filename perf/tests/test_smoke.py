"""Smoke test of the repository benchmark.

Run with ``python -m pytest perf/tests -q`` (not part of the tier-1
``testpaths``).  Uses ``--smoke`` scales: the whole file takes well under
a minute.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import layers  # noqa: E402  (perf/layers.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARATION = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perf", "run.py")] + list(arguments),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def suite(request):
    """The smoke suite's result line and the section of metrics it must hold."""
    done = run_benchmark("--smoke", "--trace", str(request.param))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    section = "per_layer" if request.param else "end_to_end"
    return json.loads(done.stdout.strip().splitlines()[-1]), DECLARATION[section]


def test_every_declared_workload_and_metric_is_emitted(suite):
    result, declared = suite
    assert result["correct"] is True
    assert list(result["workloads"]) == [w["name"] for w in DECLARATION["workloads"]]
    for workload, outcome in result["workloads"].items():
        assert outcome["correct"] is True, workload
        assert outcome["attempted"] >= 1 and outcome["failed"] == 0, workload
        assert list(outcome["metrics"]) == [entry["name"] for entry in declared], workload
        for entry in declared:
            metric = outcome["metrics"][entry["name"]]
            assert NAME.fullmatch(entry["name"]), entry["name"]
            assert metric["unit"] == entry["unit"], entry["name"]
            assert isinstance(metric["value"], (int, float)), (workload, entry["name"])
            assert math.isfinite(metric["value"]), (workload, entry["name"])


def test_end_to_end_metrics_are_never_zero(suite):
    result, declared = suite
    if declared is DECLARATION["end_to_end"]:
        for workload, outcome in result["workloads"].items():
            for name, metric in outcome["metrics"].items():
                assert metric["value"] > 0, (workload, name)


def test_single_workload_prints_the_contract_line():
    done = run_benchmark(
        "--workload", "paper_qs", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(e["name"] for e in DECLARATION["end_to_end"])


def test_declaration_is_well_formed():
    names = [w["name"] for w in DECLARATION["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for entry in DECLARATION[section]:
            names.append(entry["name"])
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    bounds = {e["name"]: e["bound"] for e in DECLARATION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_covers_every_source_file():
    assert layers.unmapped_files(os.path.join(ROOT, "src", "repro")) == []


def test_every_layer_has_its_two_metrics_declared():
    declared = {entry["name"] for entry in DECLARATION["per_layer"]}
    for layer in layers.LAYERS:
        assert layer + ".self_us_per_query" in declared
        assert layer + ".calls_per_query" in declared


def test_fails_without_printing_a_result_where_there_is_nothing_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    )
    done = run_benchmark("--workload", "paper_qs", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
