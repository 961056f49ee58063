"""The one export writer behind every ``save_*`` in this package.

The contract (docs/API.md, "Exports"): an existing target is refused
unless ``overwrite``; the bytes stream into a sibling temp file that is
renamed over the target when the block ends cleanly and unlinked on any
exception, so the target is the complete new file or exactly what was
there; no ``fsync`` — safe against a dying process, not power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator

from repro.errors import ExportError


def check_export_target(path: str, overwrite: bool) -> None:
    """Raise :class:`~repro.errors.ExportError` if ``path`` may not be written."""
    if not overwrite and os.path.exists(path):
        raise ExportError(
            "export target {!r} already exists; pass overwrite=True to "
            "replace it".format(path)
        )


@contextmanager
def open_export(path, overwrite: bool) -> Iterator[IO[str]]:
    """Text handle whose content replaces ``path`` once the block succeeds."""
    path = os.fspath(path)
    check_export_target(path, overwrite)
    temp = "{}.tmp{}".format(path, os.getpid())
    try:
        with open(temp, "w") as handle:
            yield handle
        os.replace(temp, path)
    finally:  # already renamed away on success; removed on any exception
        with suppress(FileNotFoundError):
            os.unlink(temp)
