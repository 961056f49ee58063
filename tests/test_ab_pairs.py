"""``scripts/ab_pairs.py`` refuses to compare checkouts with unequal bytecode
caches, before any benchmark runs, names the inherited settings that move
``setup_s``, and agrees with itself on one smoke pair."""

import importlib.util
import shutil

import pytest

from tests.conftest import CHECKOUT

SCRIPT = CHECKOUT / "scripts" / "ab_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ab_pairs(monkeypatch):
    module = load_script()

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(module, "one_run", no_run)
    monkeypatch.setattr(module, "measuring_runs", lambda: [])
    return module


def checkout(root, cached_under=None):
    """A source tree with ``src/`` and ``perf/``, optionally holding a .pyc."""
    for top in ("src/repro", "perf"):
        (root / top).mkdir(parents=True)
        (root / top / "module.py").write_text("")
    if cached_under is not None:
        cache = root / cached_under / "__pycache__"
        cache.mkdir()
        (cache / "module.cpython-311.pyc").write_bytes(b"")
    return root


def arguments(parent, change):
    return [str(parent), str(change), "--workload", "paper_qs", "--seed", "7", "--pairs", "1"]


@pytest.mark.parametrize("cached_under", ["src/repro", "perf"])
@pytest.mark.parametrize("cached_side", ["parent", "change"])
def test_refuses_a_cache_on_one_side_only(ab_pairs, tmp_path, cached_under, cached_side):
    sides = {
        side: checkout(tmp_path / side, cached_under if side == cached_side else None)
        for side in ("parent", "change")
    }
    with pytest.raises(SystemExit) as refused:
        ab_pairs.main(arguments(sides["parent"], sides["change"]))
    message = str(refused.value.code)
    assert message.startswith("{} holds cached bytecode".format(sides[cached_side]))
    assert "Not starting" in message


def test_equal_caches_are_no_reason_to_refuse(ab_pairs, tmp_path):
    bare = [checkout(tmp_path / side) for side in ("a", "b")]
    cached = [checkout(tmp_path / side, "src/repro") for side in ("c", "d")]
    assert not any(map(ab_pairs.cached_bytecode, bare))
    assert all(map(ab_pairs.cached_bytecode, cached))
    # Past the check the script reads BENCHMARK.json, which these trees lack.
    for parent, change in (bare, cached):
        with pytest.raises(FileNotFoundError, match="BENCHMARK.json"):
            ab_pairs.main(arguments(parent, change))


def test_one_smoke_pair_of_two_alike_copies_agrees(tmp_path, monkeypatch, capsys):
    # Both sides are this tree, copied alike (no bytecode caches, no
    # benchmark output), so the facts must be equal; speed is no gate.  The
    # pair times nothing, so a measuring run alive elsewhere is no reason
    # to refuse here.
    module = load_script()
    monkeypatch.setattr(module, "measuring_runs", lambda: [])
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", "out")
    sides = []
    for side in ("parent", "change"):
        root = tmp_path / side
        for top in ("src", "perf"):
            shutil.copytree(CHECKOUT / top, root / top, ignore=skip)
        shutil.copy(CHECKOUT / "BENCHMARK.json", root)
        sides.append(str(root))
    code = module.main(sides + ["--workload", "paper_qs", "--seed", "3", "--pairs", "1", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines()[0] == module.host_header()
    assert "(result_digest, attempted, failed): equal on both sides" in out
    assert "CHECKS FAILED" not in out


@pytest.mark.parametrize("preset", [None, "4"])
def test_the_header_names_the_inherited_thread_count_and_affinity(monkeypatch, preset):
    module = load_script()
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    header = module.host_header()
    expected = "unset" if preset is None else "'4'"
    assert header.startswith("inherited by both sides: OPENBLAS_NUM_THREADS={}, ".format(expected))
    if hasattr(module.os, "sched_getaffinity"):
        cpus = len(module.os.sched_getaffinity(0))
        assert header.endswith("({} CPU{})".format(cpus, "" if cpus == 1 else "s"))
