"""Tests for ``scripts/bench_compare.py`` on synthetic run series."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB",
         "throughput_rps": "1/s", "p50_ms": "ms", "p90_ms": "ms"}


def _series(path, runs, correct=True, steal=None):
    """One file as ``perfbench/run.py`` would print it, run after run:
    a diagnostics line (with ``steal[i]`` as run ``i``'s host steal when
    given), then the result line."""
    lines = []
    for i, values in enumerate(runs):
        diagnostics = {"host.cpus": 2}
        if steal is not None:
            diagnostics["host.steal_pct"] = steal[i]
        lines.append(json.dumps({"diagnostics": diagnostics}))
        lines.append(json.dumps({
            "correct": correct, "attempted": 7, "failed": 0 if correct else 1,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in UNITS.items()},
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


def _runs(run_s, scale=1.0):
    return [{
        "setup_s": 0.3, "run_s": r, "peak_rss_mib": 66.0 * scale,
        "throughput_rps": 700 / r, "p50_ms": 1000 * r, "p90_ms": 1100 * r,
    } for r in run_s]


def _compare(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change)],
        capture_output=True, text=True, timeout=60,
    )


def test_clean_comparison(tmp_path):
    parent = _series(tmp_path / "parent.jsonl", _runs([2.8, 2.6, 3.0, 2.7]))
    change = _series(tmp_path / "change.jsonl",
                     _runs([0.6, 0.7, 0.65, 2.9], scale=0.9))
    done = _compare(parent, change)
    assert done.returncode == 0, done.stdout + done.stderr
    table = {line.split()[0]: line.split() for line in done.stdout.splitlines()}
    # parent median 2.75, quartiles of 2.6 2.7 2.8 3.0, change median 0.675
    assert table["run_s"][2:] == ["2.75", "[2.625,", "2.95]", "0.675",
                                  "0.245", "3/4"]
    assert table["throughput_rps"][-1] == "3/4"
    assert table["setup_s"][-1] == "0/4"  # a tie is not a win
    assert "FLAG" not in done.stdout
    assert "UNRESOLVED" not in done.stdout
    assert "host.steal_pct (%): parent n/a, change n/a" in done.stdout


def test_reports_host_steal_per_side(tmp_path):
    parent = _series(tmp_path / "parent.jsonl", _runs([1.0, 1.1, 0.9, 1.0]),
                     steal=[0.5, 14.7, 2.0, 3.0])
    # the fifth change run has no parent partner, so it is not compared
    change = _series(tmp_path / "change.jsonl",
                     _runs([0.8, 0.9, 0.85, 0.8, 0.7]),
                     steal=[1.0, 0.0, 0.25, 6.0, 40.0])
    done = _compare(parent, change)
    assert done.returncode == 0, done.stdout + done.stderr
    assert ("host.steal_pct (%): parent 2.5 [0.5, 14.7], "
            "change 0.6 [0.0, 6.0]") in done.stdout.splitlines()


def test_flags_a_regression_and_a_failed_run(tmp_path):
    parent = _series(tmp_path / "parent.jsonl", _runs([1.0, 1.1, 0.9]))
    change = _series(tmp_path / "change.jsonl", _runs([1.4, 1.3, 1.5]),
                     correct=False)
    done = _compare(parent, change)
    assert done.returncode == 1
    flags = [line for line in done.stdout.splitlines()
             if line.startswith("FLAG")]
    assert {flag.split()[1] for flag in flags} == {
        "run_s:", "throughput_rps:", "p50_ms:", "p90_ms:", "change"}
    assert "WORSE" in next(line for line in done.stdout.splitlines()
                           if line.startswith("run_s"))


def test_marks_a_spread_wider_than_the_bound_unresolved(tmp_path):
    # parent run_s quartiles 1.0 and 2.0: a spread of 1.0 against a 25%
    # bound on the 1.5 median
    parent = _series(tmp_path / "parent.jsonl", _runs([1.0, 2.0, 1.0, 2.0]))
    mixed = _series(tmp_path / "mixed.jsonl", _runs([1.2, 1.9, 1.1, 1.8]))
    done = _compare(parent, mixed)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = {line.split()[0]: line.split() for line in done.stdout.splitlines()}
    assert rows["run_s"][-1] == "UNRESOLVED"
    assert rows["setup_s"][-1] == "0/4"  # no spread, no mark
    assert "FLAG" not in done.stdout
    # every change run beats every parent run: resolved despite the spread
    faster = _series(tmp_path / "faster.jsonl",
                     _runs([0.5, 0.6, 0.55, 0.7]))
    done = _compare(parent, faster)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "UNRESOLVED" not in done.stdout


def test_unreadable_input(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("not json\n")
    assert _compare(empty, empty).returncode == 2
