"""Compare two series of benchmark runs of one workload, metric by metric.

    python scripts/bench_compare.py PARENT CHANGE

PARENT and CHANGE each hold the stdout of N ``perfbench/run.py`` runs of
one workload (append them to one file); the lines carrying ``metrics``
are the runs, and run ``i`` of one file is paired with run ``i`` of the
other.  For every end-to-end metric in ``BENCHMARK.json`` the table
gives the parent's median and quartiles, the change's median, their
ratio and how many pairs the change won (by the metric's ``better``
direction).  A metric is flagged when the change's median is worse than
the parent's by more than its ``bound`` (a fraction of the parent's
median), and so is a change run that reports ``correct: false`` or
failed operations.  A metric that is not flagged is marked
``UNRESOLVED`` in the last column when the parent's own spread
(q3 - q1) is wider than its bound times the parent's median and not
every change run beats every parent run: such runs cannot tell a change
inside the bound from none.  Under the table, one line gives each side's host
steal (``host.steal_pct`` from the ``diagnostics`` line before each run)
as median [min, max] over the compared runs, or ``n/a`` when its
diagnostics carry none: a few high-steal runs can move a latency median
on their own.  Exit code 0 means nothing was flagged, 1 that something
was, 2 that the input could not be read.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
STEAL = "host.steal_pct"


def read_runs(path):
    """The result objects (lines with ``metrics``) of one run series,
    each with the ``diagnostics`` printed just before it (``{}`` when
    there were none)."""
    runs = []
    diagnostics = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if isinstance(record.get("diagnostics"), dict):
            diagnostics = record["diagnostics"]
        elif "metrics" in record:
            runs.append(dict(record, diagnostics=diagnostics))
            diagnostics = {}
    return runs


def steal_summary(runs):
    """Host steal over ``runs`` as ``median [min, max]`` percent, or
    ``n/a`` when no run's diagnostics carry it."""
    values = [
        run["diagnostics"][STEAL] for run in runs
        if isinstance(run["diagnostics"].get(STEAL), (int, float))
    ]
    if not values:
        return "n/a"
    return (f"{statistics.median(values):.1f} "
            f"[{min(values):.1f}, {max(values):.1f}]")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent, change, spec):
    """``(table rows, flags)`` for paired run series."""
    pairs = list(zip(parent, change))
    rows, flags = [], []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not values:
            continue
        old = [p for p, _ in values]
        new = [c for _, c in values]
        old_median, new_median = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        wins = sum(1 for p, c in values if (c < p if lower else c > p))
        every_run_wins = (max(new) < min(old) if lower
                          else min(new) > max(old))
        ratio = new_median / old_median if old_median else float("inf")
        worse = (new_median - old_median) * (1 if lower else -1)
        flagged = worse > metric["bound"] * abs(old_median)
        if flagged:
            flags.append(
                f"{name}: change median {new_median:.4g} is worse than "
                f"the parent's {old_median:.4g} by more than "
                f"{metric['bound']:.0%}"
            )
        if flagged:
            mark = "WORSE"
        elif q3 - q1 > metric["bound"] * abs(old_median) \
                and not every_run_wins:
            mark = "UNRESOLVED"
        else:
            mark = ""
        rows.append((
            name, metric["unit"], f"{old_median:.4g}",
            f"[{q1:.4g}, {q3:.4g}]", f"{new_median:.4g}", f"{ratio:.3f}",
            f"{wins}/{len(values)}", mark,
        ))
    for i, run in enumerate(change):
        if not run.get("correct", False) or run.get("failed", 0):
            flags.append(
                f"change run {i}: correct={run.get('correct')}, "
                f"failed={run.get('failed')}"
            )
    return rows, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run series of the parent commit")
    parser.add_argument("change", help="run series of the change")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        parent, change = read_runs(args.parent), read_runs(args.change)
    except (OSError, ValueError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    if not parent or not change:
        print("bench_compare: a file holds no runs", file=sys.stderr)
        return 2
    if len(parent) != len(change):
        print(f"note: {len(parent)} parent and {len(change)} change runs; "
              f"comparing the first {min(len(parent), len(change))} pairs")
    rows, flags = compare(parent, change, spec)
    header = ("metric", "unit", "parent", "parent [q1, q3]", "change",
              "change/parent", "wins", "")
    widths = [max(len(row[i]) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              .rstrip())
    compared = min(len(parent), len(change))
    print(f"{STEAL} (%): parent {steal_summary(parent[:compared])}, "
          f"change {steal_summary(change[:compared])}")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
