"""CI frontier smoke: MS(6,1) under an artificially tiny memory budget
must spill at least 3 layers through disk segments, match the compiled
BFS layer profile exactly, and leave the spill dir empty on exit —
including the atexit backstop path for a crashed run.  Then MS(9,1),
k = 10 and past the compiled engine's reach, profiled in RAM under the
default budget, must equal the closed-form star(10) layer counts
(MS(l,1) is isomorphic to star(l+1)).  Last, meet-in-the-middle pair
distances on star(11) (both balls on the k!-bit map) and star(12) (on
sorted keys) must equal the star closed form on seeded pairs.

Run with ``PYTHONPATH=src python scripts/frontier_smoke.py``; exits
non-zero with a message on the first violated assertion.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import star_layer_counts
from repro.core.permutations import Permutation
from repro.frontier import FrontierBFS, pair_distance
from repro.networks import make_network
from repro.routing import star_distance_between
from repro.topologies import StarGraph

#: small enough that each BFS takes milliseconds, big enough (5040
#: states, peak layer ~1800) that a tiny budget genuinely fragments
#: layers into multiple spill segments.
NETWORK = ("MS", {"l": 6, "n": 1})  # MS(6,1): k = 7, 5040 states

#: ~2 layer-segments per wide layer at k = 7 states of 7 bytes.
TINY_BUDGET = 16 * 1024

#: star graphs past the compile wall and their seeded pair counts: at
#: the default budget each ball keeps a map at k = 11, sorted keys at 12.
PAIR_STARS = ((11, 4), (12, 3))


def check(condition, message):
    if not condition:
        print(f"frontier smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    family, kwargs = NETWORK
    net = make_network(family, **kwargs)
    compiled = net.compiled()
    starts = compiled.layer_starts
    expected = [int(starts[i + 1] - starts[i])
                for i in range(compiled.num_layers())]

    with tempfile.TemporaryDirectory() as tmp:
        spill_root = Path(tmp)
        run_dir = spill_root / "run"
        result = FrontierBFS(
            net, memory_budget_bytes=TINY_BUDGET, spill_dir=run_dir,
        ).run()

        check(result.layer_sizes == expected,
              f"profile mismatch: {result.layer_sizes} != {expected}")
        check(result.diameter == compiled.diameter(),
              f"diameter {result.diameter} != {compiled.diameter()}")
        spilled_layers = sum(1 for width in result.layer_sizes
                             if width > 1)
        check(spilled_layers >= 3 and result.spill_segments >= 3,
              f"expected >= 3 spilled layers, got "
              f"{result.spill_segments} segments")
        check(result.spilled_bytes > 0, "nothing was spilled")
        check(result.batches > len(result.layer_sizes),
              "tiny budget did not force multiple batches per layer")
        check(not run_dir.exists(),
              f"run dir {run_dir} survived a successful run")
        check(list(spill_root.iterdir()) == [],
              f"spill dir not empty: {list(spill_root.iterdir())}")

        # crashed run: journaled layers stay for --resume, the orphan
        # of the in-flight layer is pruned, and resume completes
        class Boom(RuntimeError):
            pass

        def explode(depth, _size):
            if depth == 3:
                raise Boom()

        try:
            FrontierBFS(
                net, memory_budget_bytes=TINY_BUDGET,
                spill_dir=run_dir, on_layer=explode,
            ).run()
            check(False, "crash hook did not fire")
        except Boom:
            pass
        check(run_dir.exists(), "crashed run dir was not kept")
        resumed = FrontierBFS(
            net, memory_budget_bytes=TINY_BUDGET, spill_dir=run_dir,
            resume=True,
        ).run()
        check(resumed.resumed_from == 3,
              f"resumed from {resumed.resumed_from}, expected 3")
        check(resumed.layer_sizes == expected,
              "resumed profile mismatch")
        check(not run_dir.exists(),
              "run dir survived a successful resumed run")

    big = make_network("MS", l=9, n=1)
    profile = FrontierBFS(big).run()
    check(profile.layer_sizes == star_layer_counts(big.k),
          f"{big.name} profile {profile.layer_sizes} != star("
          f"{big.k}) closed form {star_layer_counts(big.k)}")

    pair_times = []
    for k, pairs in PAIR_STARS:
        star = StarGraph(k)
        rng = np.random.default_rng(k)
        started = time.perf_counter()
        for _ in range(pairs):
            u = Permutation.random(k, rng)
            v = Permutation.random(k, rng)
            got = pair_distance(star, u, v)
            check(got == star_distance_between(u, v),
                  f"{star.name} pair distance {got} != closed form "
                  f"{star_distance_between(u, v)} for {u} -> {v}")
        pair_times.append(
            f"{pairs} on {star.name} in "
            f"{time.perf_counter() - started:.2f} s"
        )

    print(f"frontier smoke OK: {net.name} profile {result.layer_sizes} "
          f"under {TINY_BUDGET} bytes, {result.spill_segments} spill "
          f"segments, {result.batches} batches, resume from layer 3 "
          f"clean; {big.name} (k = {big.k}) matches the star closed "
          f"form in {profile.elapsed_seconds:.1f} s; pair distances "
          f"match it too ({', '.join(pair_times)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
