"""The export contract: one guarded, atomic writer behind every ``save_*``."""

import ast
import os
import stat
from pathlib import Path

import pytest

from repro.errors import ExportError
from repro.metrics.export import check_export_target, open_export
from tests.conftest import assert_export_untouched, precious_target

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestOpenExport:
    def test_writes_the_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with open_export(str(target), overwrite=False) as handle:
            handle.write("one\n")
            handle.write("two\n")
            assert not target.exists()  # nothing visible until the block ends
        assert target.read_text() == "one\ntwo\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_accepts_a_path_object(self, tmp_path):
        with open_export(tmp_path / "out.txt", overwrite=False) as handle:
            handle.write("x")
        assert (tmp_path / "out.txt").read_text() == "x"

    def test_guard_names_the_path_and_writes_nothing(self, tmp_path):
        target = precious_target(tmp_path / "out.txt", True)
        with pytest.raises(ExportError, match="overwrite=True") as caught:
            with open_export(str(target), overwrite=False):
                raise AssertionError("the block must not run")
        assert str(target) in str(caught.value)
        assert_export_untouched(target, True)
        with pytest.raises(ExportError):
            check_export_target(str(target), overwrite=False)
        check_export_target(str(target), overwrite=True)
        check_export_target(str(tmp_path / "absent"), overwrite=False)

    def test_overwrite_replaces_the_whole_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("a much longer previous content\n")
        with open_export(str(target), overwrite=True) as handle:
            handle.write("new\n")
        assert target.read_text() == "new\n"

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failed_block_leaves_the_target_as_it_was(self, tmp_path, error, existing):
        target = precious_target(tmp_path / "out.txt", existing)
        with pytest.raises(error):
            with open_export(str(target), overwrite=True) as handle:
                handle.write("half a fi")
                handle.flush()
                raise error()
        assert_export_untouched(target, existing)

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_symlink_is_written_through_not_replaced(self, tmp_path, fails):
        real = tmp_path / "data" / "real.txt"
        real.parent.mkdir()
        real.write_text("precious")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        try:
            with open_export(str(link), overwrite=True) as handle:
                handle.write("new")
                if fails:
                    raise ValueError()
        except ValueError:
            pass
        assert link.is_symlink()
        assert real.read_text() == ("precious" if fails else "new")
        assert [p.name for p in tmp_path.iterdir() if p != real.parent] == ["link.txt"]
        assert [p.name for p in real.parent.iterdir()] == ["real.txt"]

    def test_a_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.txt"
        link.symlink_to(tmp_path / "later.txt")
        with open_export(str(link), overwrite=False) as handle:
            handle.write("new")
        assert link.is_symlink() and (tmp_path / "later.txt").read_text() == "new"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_a_target_that_is_not_a_regular_file_is_written_into(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(ExportError):  # it exists: same guard as a file
                with open_export(str(fifo), overwrite=False):
                    pass
            with open_export(str(fifo), overwrite=True) as handle:
                handle.write("through the pipe\n")
            assert os.read(reader, 64) == b"through the pipe\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_missing_directory_is_an_export_error(self, tmp_path):
        target = str(tmp_path / "nowhere" / "out.txt")
        for overwrite in (False, True):
            with pytest.raises(ExportError, match="directory") as caught:
                check_export_target(target, overwrite)
            assert target in str(caught.value)
        with pytest.raises(ExportError):
            with open_export(target, overwrite=True):
                raise AssertionError("the block must not run")
        check_export_target("relative-name-in-the-working-directory.txt", overwrite=False)


def file_writes(tree):
    """Lines of ``tree`` that open a file for writing: ``open`` / ``.open``
    with a ``w`` / ``a`` / ``x`` / ``+`` mode (positional or ``mode=``) and
    ``.write_text`` / ``.write_bytes``.  Comments and docstrings are not code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name == "open":
            # open(path, mode), path.open(mode), mode=...: a string argument
            # made of mode letters, one of which writes
            modes = node.args[1:] if isinstance(func, ast.Name) else node.args
            modes = list(modes) + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and set(mode.value) & set("wax+")
                and set(mode.value) <= set("rwaxbt+")
                for mode in modes
            ):
                yield node.lineno


class TestOneWriter:
    """``repro.metrics.export`` is the only place in ``src/`` that opens a file to write."""

    def test_the_finder_sees_every_spelling_and_no_prose(self):
        code = (
            'open(p, "w")\nopen(p, mode="a")\nopen(p, "xb")\np.open("w")\n'
            'p.write_text(t)\np.write_bytes(b)\nopen("a")\nopen(p, "rb")\n'
            '"""open(p, "w")"""  # open(p, "w")\n'
        )
        assert list(file_writes(ast.parse(code))) == [1, 2, 3, 4, 5, 6]

    def test_no_other_module_opens_a_file_for_writing(self):
        found = {
            str(path.relative_to(SRC)): lines
            for path in sorted(SRC.rglob("*.py"))
            for lines in [sorted(file_writes(ast.parse(path.read_text())))]
            if lines
        }
        assert sorted(found) == ["cli.py", "metrics/export.py"], found
        assert len(found["cli.py"]) == 1  # --port-file
        cli = (SRC / "cli.py").read_text().splitlines()
        assert "port_file" in cli[found["cli.py"][0] - 1]

    def test_no_second_overwrite_guard(self):
        """Only ``check_export_target`` asks whether an export target exists."""
        guards = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", "") == "ExportError"
        ]
        assert guards == ["metrics/export.py"]
