"""Frontier-engine scale benchmark: memory-bounded BFS past the
compiled-table ceiling.

The new-subsystem acceptance numbers, measured on the macro-star chain
``MS(l,1)``:

* **layer-profile agreement**: at ``k = 8`` (within compiled range) the
  frontier engine's layer profile equals the compiled BFS profile
  exactly; at ``k = 10`` the profile is identical across every budget in
  the sweep (budget moves batch counts, never results).
* **peak RSS vs. budget**: a subprocess-per-budget sweep over MS(9,1)
  (``k = 10``, ``10! = 3,628,800`` states — refused by the compile
  guard) shows peak RSS tracking ``memory_budget_bytes``, with the
  flagship 64 MiB run completing the full profile + diameter under a
  budget below 20% of the materialised-table footprint
  ``estimate_table_bytes(10, 9)``.
* **sampled-pair curves**: meet-in-the-middle bidirectional search
  answers uniform random pair distances on MS(10,1) (``k = 11``) and
  MS(11,1) (``k = 12``, ``12! = 479,001,600`` states) in seconds per
  pair under the same fixed budget; each instance's row records its
  elapsed seconds.

Each budget runs in its own subprocess so ``ru_maxrss`` is that run's
honest peak, not the monotonic max of earlier runs in the same
interpreter.

Writes ``benchmarks/results/BENCH_frontier.json`` with the structured
sweep rows (plus the usual text table).
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

from repro.analysis import (
    average_distance_from_layers,
    profile_within_moore,
    sampled_distances,
)
from repro.core.compiled import COMPILE_BUDGET_BYTES, estimate_table_bytes
from repro.frontier import FrontierBFS
from repro.networks import make_network

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
MIB = 1024 * 1024

#: flagship instance: first MS chain member past the compile guard.
FLAGSHIP = {"family": "MS", "l": 9, "n": 1}  # k = 10, 3,628,800 states
FLAGSHIP_BUDGET = 64 * MIB
MAX_BUDGET_FRACTION = 0.20

SWEEP_BUDGETS = (8 * MIB, 32 * MIB, FLAGSHIP_BUDGET, 128 * MIB)

#: sampled-pair instances beyond any full exploration: (l, pairs).
PAIR_INSTANCES = ((10, 8), (11, 8))  # k = 11 and k = 12
PAIR_SEED = 17

_CHILD = """
import json, resource, sys, tempfile
from pathlib import Path
from repro.frontier import FrontierBFS
from repro.networks import make_network

budget = int(sys.argv[1])
net = make_network("MS", l=9, n=1)
with tempfile.TemporaryDirectory() as td:
    result = FrontierBFS(
        net, memory_budget_bytes=budget, spill_dir=Path(td) / "run",
    ).run()
print(json.dumps({
    "budget": budget,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "batches": result.batches,
    "elapsed_s": round(result.elapsed_seconds, 2),
    "diameter": result.diameter,
    "layer_sizes": result.layer_sizes,
    "num_states": result.num_states,
    "spilled_bytes": result.spilled_bytes,
    "spill_segments": result.spill_segments,
}))
"""


def _run_budget(budget):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(budget)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_frontier_scale(report):
    # -- agreement inside compiled range: MS(7,1), k = 8 ---------------
    small = make_network("MS", l=7, n=1)
    compiled = small.compiled()
    starts = compiled.layer_starts
    compiled_profile = [int(starts[i + 1] - starts[i])
                        for i in range(compiled.num_layers())]
    small_run = FrontierBFS(small, memory_budget_bytes=1 * MIB).run()
    assert small_run.layer_sizes == compiled_profile
    assert small_run.diameter == compiled.diameter()

    # -- peak-RSS-vs-budget sweep over MS(9,1), k = 10 -----------------
    flagship = make_network(
        FLAGSHIP["family"], l=FLAGSHIP["l"], n=FLAGSHIP["n"]
    )
    assert flagship.k == 10 and not flagship.can_compile()
    footprint = estimate_table_bytes(flagship.k, flagship.degree)
    assert footprint > COMPILE_BUDGET_BYTES
    assert FLAGSHIP_BUDGET < MAX_BUDGET_FRACTION * footprint, (
        f"flagship budget {FLAGSHIP_BUDGET} is not below "
        f"{MAX_BUDGET_FRACTION:.0%} of the {footprint}-byte table "
        "footprint"
    )

    sweep = [_run_budget(budget) for budget in SWEEP_BUDGETS]
    reference = sweep[0]
    assert reference["num_states"] == math.factorial(flagship.k)
    for row in sweep[1:]:
        assert row["layer_sizes"] == reference["layer_sizes"], (
            "budget changed the layer profile"
        )
        assert row["diameter"] == reference["diameter"]
    for tighter, looser in zip(sweep, sweep[1:]):
        assert tighter["batches"] >= looser["batches"], (
            "a larger budget should never need more batches"
        )
    assert sweep[0]["peak_rss_kb"] <= sweep[-1]["peak_rss_kb"], (
        "peak RSS did not track the budget"
    )
    assert profile_within_moore(reference["layer_sizes"], flagship.degree)

    flagship_row = sweep[SWEEP_BUDGETS.index(FLAGSHIP_BUDGET)]
    avg_distance = average_distance_from_layers(reference["layer_sizes"])

    # -- sampled-pair curves at k = 11 and k = 12 ----------------------
    pair_rows = []
    for l, pairs in PAIR_INSTANCES:
        net = make_network("MS", l=l, n=1)
        started = time.perf_counter()
        stats = sampled_distances(
            net, pairs=pairs, seed=PAIR_SEED, method="frontier",
            memory_budget_bytes=FLAGSHIP_BUDGET,
        )
        stats["elapsed_s"] = round(time.perf_counter() - started, 2)
        assert stats["method"] == "frontier"
        assert len(stats["samples"]) == pairs
        assert all(d >= 0 for d in stats["samples"]), (
            f"unreachable pair on {net.name}"
        )
        assert stats["min"] <= stats["mean"] <= stats["max"]
        pair_rows.append(stats)

    lines = [
        f"flagship: {flagship.name}  k = {flagship.k}  "
        f"{reference['num_states']:,} states  degree {flagship.degree}",
        f"materialised-table footprint estimate: "
        f"{footprint / MIB:.0f} MiB (compile guard refuses it at "
        f"{COMPILE_BUDGET_BYTES / MIB:.0f} MiB)",
        f"flagship budget: {FLAGSHIP_BUDGET / MIB:.0f} MiB = "
        f"{100.0 * FLAGSHIP_BUDGET / footprint:.1f}% of footprint",
        f"diameter {reference['diameter']}, avg distance "
        f"{avg_distance:.3f}, profile within Moore caps, identical "
        f"across all {len(sweep)} budgets",
        "",
        f"{'budget MiB':>10}  {'peak RSS MiB':>12}  {'batches':>7}  "
        f"{'spill MiB':>9}  {'elapsed s':>9}",
    ]
    for row in sweep:
        lines.append(
            f"{row['budget'] / MIB:>10.0f}  "
            f"{row['peak_rss_kb'] / 1024:>12.1f}  "
            f"{row['batches']:>7}  "
            f"{row['spilled_bytes'] / MIB:>9.1f}  "
            f"{row['elapsed_s']:>9.1f}"
        )
    lines.append("")
    lines.append(
        f"k = 8 agreement: frontier profile == compiled profile "
        f"({small.name}, {sum(compiled_profile)} states)"
    )
    lines.append("")
    lines.append(
        f"{'network':>9}  {'k':>2}  {'pairs':>5}  {'mean':>6}  "
        f"{'ci95':>14}  {'min':>3}  {'max':>3}  {'elapsed s':>9}"
    )
    for stats in pair_rows:
        lo, hi = stats["ci95"]
        lines.append(
            f"{stats['network']:>9}  {stats['k']:>2}  "
            f"{stats['pairs']:>5}  {stats['mean']:>6.2f}  "
            f"[{lo:>5.2f}, {hi:>5.2f}]  "
            f"{stats['min']:>3}  {stats['max']:>3}  "
            f"{stats['elapsed_s']:>9.2f}"
        )
    report("frontier", lines)

    # structured artefact on top of the text lines
    (RESULTS_DIR / "BENCH_frontier.json").write_text(json.dumps({
        "name": "frontier",
        "flagship": {
            "network": flagship.name,
            "k": flagship.k,
            "num_states": reference["num_states"],
            "degree": flagship.degree,
            "footprint_bytes": footprint,
            "budget_bytes": FLAGSHIP_BUDGET,
            "budget_fraction_of_footprint": round(
                FLAGSHIP_BUDGET / footprint, 4
            ),
            "max_budget_fraction_allowed": MAX_BUDGET_FRACTION,
            "diameter": reference["diameter"],
            "avg_distance": round(avg_distance, 4),
            "layer_sizes": reference["layer_sizes"],
            "peak_rss_kb": flagship_row["peak_rss_kb"],
            "elapsed_s": flagship_row["elapsed_s"],
        },
        "rss_vs_budget": sweep,
        "profile_budget_invariant": True,
        "profile_within_moore": True,
        "k8_agreement": {
            "network": small.name,
            "matches_compiled": True,
            "layer_sizes": compiled_profile,
        },
        "sampled_pairs": pair_rows,
        "lines": lines,
    }, indent=1))
