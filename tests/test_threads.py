"""A repro process stays single-threaded.

Nothing in the package calls BLAS, but the OpenBLAS inside numpy's wheel
starts a worker pool when numpy is imported, and on a host with two or more
CPUs its idle worker spins on CPU the process pays for.  ``import repro``
therefore defaults ``OPENBLAS_NUM_THREADS`` to 1 before any of its modules
can import numpy.  A host with one CPU passes the first check either way,
because OpenBLAS then starts no worker at all.  Each check runs in a fresh
interpreter: the test process has long since imported numpy.
"""

import os

import pytest

from tests.conftest import run_from_checkout
from tests.test_import_footprint import SPEC

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)


@needs_proc
def test_a_qs_run_keeps_one_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    done = run_from_checkout([
        "-c",
        SPEC
        + "import os\n"
        "assert run_spec(spec()).goal_attainment()\n"
        "assert 'numpy' in sys.modules\n"
        "threads = os.listdir('/proc/self/task')\n"
        "assert len(threads) == 1, threads\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n",
    ])
    assert done.returncode == 0, done.stderr


def test_a_preset_thread_count_survives_import(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    done = run_from_checkout([
        "-c",
        "import os\n"
        "import repro\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2', os.environ['OPENBLAS_NUM_THREADS']\n",
    ])
    assert done.returncode == 0, done.stderr
