"""``scripts/ab_pairs.py`` refuses to compare checkouts with unequal bytecode
caches, before any benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture
def ab_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

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
