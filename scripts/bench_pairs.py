"""Run one workload's benchmark in two trees, pair by pair, and compare.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --seed S --pairs N [--seconds 24] --out DIR

PARENT_TREE and CHANGE_TREE are checkout roots.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, the parent first in even pairs and the change first in odd
ones, so a drift in host speed falls on both sides alike.  Each tree's
stdout goes to ``DIR/<W>-seed<S>-parent.jsonl`` or ``...-change.jsonl``,
after one header line ``{"record": {...}}`` that names the tree's git sha
(null outside git), the python and numpy versions, the host, its CPU
count, the workload, the seed and the seconds.  Lines are appended run
by run, so an interrupted series keeps its finished pairs.

Then ``scripts/bench_compare.py`` compares the two files (it reads only
the lines with ``metrics``); its table is printed and its exit code is
this script's.  Exit code 2 also means a run could not start or crashed.
"""

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path

import numpy

COMPARE = Path(__file__).resolve().parent / "bench_compare.py"

#: a run's own ceiling is 180 s; this one only catches a hung child.
RUN_TIMEOUT_S = 600


def git_sha(tree):
    """The tree's checked-out commit, or ``None`` outside git."""
    try:
        done = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def record(tree, args):
    """The header line's fields for one tree's series."""
    return {
        "git_sha": git_sha(tree),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": socket.gethostname(),
        "cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_once(tree, args):
    """One ``perfbench/run.py`` run in ``tree``: ``(exit code, stdout)``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout root of the parent")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--out", required=True,
                        help="directory for the two series")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trees = {"parent": Path(args.parent), "change": Path(args.change)}
    files = {}
    for side, tree in trees.items():
        files[side] = out / f"{args.workload}-seed{args.seed}-{side}.jsonl"
        files[side].write_text(
            json.dumps({"record": record(tree, args)}) + "\n"
        )
    for pair in range(args.pairs):
        order = ("parent", "change")
        for side in order if pair % 2 == 0 else order[::-1]:
            code, stdout = run_once(trees[side], args)
            with files[side].open("a") as series:
                series.write(stdout)
            print(f"pair {pair + 1}/{args.pairs} {side}: exit {code}",
                  file=sys.stderr)
            if code not in (0, 1):
                return 2
    done = subprocess.run(
        [sys.executable, str(COMPARE), str(files["parent"]),
         str(files["change"])],
        capture_output=True, text=True,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
