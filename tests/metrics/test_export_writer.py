"""The export contract: one guarded, atomic writer behind every ``save_*``."""

import inspect
import re
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

    def test_missing_directory_is_an_os_error_not_an_export_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with open_export(str(tmp_path / "nowhere" / "out.txt"), overwrite=True):
                pass


def savers():
    from repro.core.modeling.training import save_model
    from repro.metrics.export import save_result
    from repro.metrics.telemetry import TelemetryStore
    from repro.obs.export import save_chrome_trace, save_spans_jsonl
    from repro.scenarios.loader import save_scenario
    from repro.shard.report import export_shard_telemetry, save_sharded_report
    from repro.workloads.trace import WorkloadTrace

    refusing = [
        TelemetryStore.save_jsonl,
        save_spans_jsonl,
        save_chrome_trace,
        save_sharded_report,
        export_shard_telemetry,
    ]
    replacing = [save_result, save_model, save_scenario, WorkloadTrace.save]
    return [(f, False) for f in refusing] + [(f, True) for f in replacing]


@pytest.mark.parametrize("saver, default", savers())
def test_every_saver_shows_the_policy_with_its_old_default(saver, default):
    assert inspect.signature(saver).parameters["overwrite"].default is default


class TestOneWriter:
    """``repro.metrics.export`` is the only place in ``src/`` that opens a file to write."""

    def test_no_other_module_opens_a_file_for_writing(self):
        pattern = re.compile(r"""open\(.*["']w["']|write_text\(""")
        found = sorted(
            (str(path.relative_to(SRC)), line.strip())
            for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines()
            if pattern.search(line)
        )
        assert [name for name, _ in found] == ["cli.py", "metrics/export.py"], found
        assert "port_file" in dict(found)["cli.py"]

    def test_no_second_overwrite_guard(self):
        guards = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if re.search(r"not overwrite and", path.read_text())
        ]
        assert guards == ["metrics/export.py"]
