#!/usr/bin/env python
"""Alternating parent / change runs of the repository benchmark (stdlib only).

    python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload paper_qs --seed 7 --pairs 10

Each directory is a checkout (``git clone`` one per commit, see
docs/BENCHMARKS.md).  Every pair runs each checkout's *own, unmodified*
``perf/run.py --workload W --seed N --trace 0`` once, one run at a time,
from inside that checkout — the parent first in even pairs, the change
first in odd ones.  This script times nothing itself: every figure it prints
is one that ``perf/run.py`` reported.

Printed: every run; per end-to-end metric each side's median and quartiles,
the pairs the change won (ties count for neither), and the distance between
the medians against the parent's own inter-quartile distance — the two
halves of the rule in docs/BENCHMARKS.md ("won >= 9 of 10 pairs, medians
further apart than the parent's spread").  Exit code 1 when
``result_digest``, attempted or failed differ between the sides (the change
moved a simulated fact) or a run failed its own checks; speed is no gate.

The header names what moves ``setup_s`` outside the code, since both
sides inherit it from this shell: ``OPENBLAS_NUM_THREADS`` and the CPU
affinity.  With the variable unset and two or more CPUs, numpy's OpenBLAS
would start a spinning worker pool at import, unless the package sets the
variable itself; a preset value or a one-CPU affinity hides that difference.

Refuses to start while another measuring run is alive (``pgrep -f
perf/measure.py``): with two cores a second run skews every number.  Refuses
too when one checkout holds compiled bytecode under ``src/`` or ``perf/`` and
the other does not: with ``PYTHONDONTWRITEBYTECODE`` set, the side without
it compiles every imported module in every run, and ``setup_s`` then
measures the compiler (~0.1 s a run), not the change.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def measuring_runs():
    """Pids of live ``perf/measure.py`` children (empty without pgrep)."""
    try:
        found = subprocess.run(
            ["pgrep", "-f", "perf/measure.py"], capture_output=True, text=True
        )
    except OSError:
        return []
    return found.stdout.split()


def cached_bytecode(directory):
    """Whether a checkout holds compiled bytecode under ``src/`` or ``perf/``."""
    for top in ("src", "perf"):
        for _, _, files in os.walk(os.path.join(directory, top)):
            if any(name.endswith(".pyc") for name in files):
                return True
    return False


def host_header():
    """The inherited settings that move ``setup_s``, as one line."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    try:
        cpus = sorted(os.sched_getaffinity(0))
        affinity = "{} ({} CPU{})".format(
            ",".join(map(str, cpus)), len(cpus), "" if len(cpus) == 1 else "s"
        )
    except AttributeError:  # no sched_getaffinity on this platform
        affinity = "unknown"
    return "inherited by both sides: OPENBLAS_NUM_THREADS={}, CPU affinity {}".format(
        "unset" if threads is None else repr(threads), affinity
    )


def one_run(directory, workload, seed, smoke):
    """Run one checkout's benchmark; its facts and end-to-end metrics."""
    command = [sys.executable, "perf/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--trace", "0"] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    digest = re.search(r"result_digest (\w+)", done.stdout)
    if not lines or digest is None:
        sys.exit("{}: no result from {}\n{}".format(directory, " ".join(command), done.stderr))
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"] and done.returncode == 0,
        "facts": (digest.group(1), result["attempted"], result["failed"]),
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values):
    """(low quartile, median, high quartile); all the value itself below 2."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    cached = [d for d in (args.parent_dir, args.change_dir) if cached_bytecode(d)]
    if len(cached) == 1:
        sys.exit(
            "{} holds cached bytecode under src/ or perf/ and the other checkout does "
            "not; setup_s would time compiling on one side only. Not starting: clone "
            "both afresh or delete its __pycache__ directories".format(cached[0])
        )
    busy = measuring_runs()
    if busy:
        sys.exit("a measuring run is alive (pid {}); not starting".format(", ".join(busy)))
    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]

    print(host_header(), flush=True)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            run = one_run(sides[side], args.workload, args.seed, args.smoke)
            runs[side].append(run)
            print(
                "pair {:>2} {:<6} {}  digest {} attempted {} failed {}{}".format(
                    pair,
                    side,
                    "  ".join(
                        "{} {:.6g}".format(m["name"], run["metrics"][m["name"]]) for m in declared
                    ),
                    *run["facts"],
                    "" if run["correct"] else "  CHECKS FAILED",
                ),
                flush=True,
            )

    print("\n{} seed {}: {} pairs".format(args.workload, args.seed, args.pairs))
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [run["metrics"][name] for run in runs["parent"]]
        change = [run["metrics"][name] for run in runs["change"]]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        (p_low, p_mid, p_high), (c_low, c_mid, c_high) = quartiles(parent), quartiles(change)
        print(
            "  {:<18} parent {:.6g} [{:.6g}, {:.6g}]  change {:.6g} [{:.6g}, {:.6g}]  "
            "{:.4f}x  won {} lost {}  medians {:.4g} apart, parent IQR {:.4g}  ({} is better)".format(
                name, p_mid, p_low, p_high, c_mid, c_low, c_high,
                c_mid / p_mid if p_mid else float("nan"),
                won, lost, abs(c_mid - p_mid), p_high - p_low, metric["better"],
            )
        )

    facts = {side: sorted({run["facts"] for run in runs[side]}) for side in runs}
    same = facts["parent"] == facts["change"] and len(facts["parent"]) == 1
    correct = all(run["correct"] for side in runs for run in runs[side])
    print("  (result_digest, attempted, failed): {}".format(
        "equal on both sides {}".format(facts["parent"][0]) if same else "DIFFER {}".format(facts)
    ))
    return 0 if same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
