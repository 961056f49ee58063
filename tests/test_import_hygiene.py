"""Imports follow use: what a plain run never touches is never loaded.

Each check runs in a fresh interpreter — ``sys.modules`` of the test
process says nothing, other tests have long since imported everything.
"""

from tests.conftest import run_from_checkout

PACKAGES = (
    "import repro, repro.experiments, repro.obs.live, repro.shard, "
    "repro.scenarios, repro.metrics\n"
)

#: Loaded only by a dashboard, a process pool or the SQLite backend.
UNUSED_BY_A_PLAIN_RUN = [
    "http.server",
    "email",
    "ssl",
    "multiprocessing",
    "concurrent.futures.process",
    "sqlite3",
]


def run_python(code):
    done = run_from_checkout(["-c", code])
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_packages_loads_no_server_pool_or_sqlite():
    out = run_python(
        "import sys\n" + PACKAGES +
        "print([m for m in {!r} if m in sys.modules])".format(UNUSED_BY_A_PLAIN_RUN)
    )
    assert out.strip() == "[]"


def test_live_server_loads_on_first_access():
    run_python(
        "import sys\n" + PACKAGES +
        "import repro.obs.live as live\n"
        "assert 'LiveServer' in live.__all__\n"
        "assert all(hasattr(live, name) for name in live.__all__ if name != 'LiveServer')\n"
        "assert 'http.server' not in sys.modules\n"
        "try:\n"
        "    live.NoSuchThing\n"
        "except AttributeError as exc:\n"
        "    assert 'NoSuchThing' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('unknown attribute did not raise')\n"
        "from repro.obs.live import LiveServer\n"
        "assert 'http.server' in sys.modules\n"
        "from repro.obs.live.server import LiveServer as direct\n"
        "assert LiveServer is direct is live.LiveServer\n"
    )


def test_the_pool_is_imported_only_when_jobs_build_one():
    run_python(
        "import sys\n"
        "from repro.config import WorkloadScaleConfig, default_config\n"
        "from repro.experiments.parallel import RunRequest, run_requests\n"
        "from repro.experiments.runner import ExperimentSpec\n"
        "from repro.workloads.schedule import constant_schedule\n"
        "scale = WorkloadScaleConfig(period_seconds=20.0, num_periods=2)\n"
        "schedule = constant_schedule(20.0, 2, {'class1': 2, 'class2': 2, 'class3': 6})\n"
        "requests = [\n"
        "    RunRequest(ExperimentSpec(\n"
        "        controller='none', schedule=schedule,\n"
        "        config=default_config(seed=seed, scale=scale)))\n"
        "    for seed in (3, 4)\n"
        "]\n"
        "serial = run_requests(requests, jobs=1)\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "pooled = run_requests(requests, jobs=2)\n"
        "assert 'concurrent.futures.process' in sys.modules\n"
        "assert all(o.ok for o in serial + pooled), [o.error for o in serial + pooled]\n"
        "assert [o.summary for o in pooled] == [o.summary for o in serial]\n"
    )
