"""Compiled-core speedup benchmark (the PR's headline number).

Repeats the paper-table workload — diameter, distance distribution,
average distance, and route queries over one whole-graph BFS tree —
on a ``k = 8`` family (MS(7,1), ``8! = 40320`` nodes) twice:

* **object path**: the pre-refactor behaviour, one Python-level BFS per
  statistic (fresh graph instances defeat the new memoisation), and
  routes walked over the object BFS spanning tree;
* **compiled path**: one shared vectorised BFS (compile time *included*
  in the measurement) serving every query from cached arrays, routes
  included (``shortest_path``).

Asserts the compiled path is at least 5x faster end to end and records
the per-query and total timings via the ``report`` fixture
(``benchmarks/results/BENCH_compiled_speedup.json``).
"""

import random
import time

from repro.comm.spanning_trees import _object_bfs_spanning_tree
from repro.core.permutations import Permutation
from repro.networks import MacroStar

REQUIRED_SPEEDUP = 5.0
NUM_ROUTES = 50


def _route_pairs(k, count):
    rng = random.Random(11)
    return [
        (Permutation.random(k, rng), Permutation.random(k, rng))
        for _ in range(count)
    ]


def _tree_route(tree, source, target):
    """Dimensions of the tree path identity -> ``source^-1 target``,
    which left translation by ``source`` maps onto a shortest route."""
    node = source.inverse() * target
    word = []
    while node in tree:  # the root (identity) is absent
        node, dim = tree[node]
        word.append(dim)
    word.reverse()
    return word


def test_compiled_speedup_k8(report):
    pairs = _route_pairs(8, NUM_ROUTES)
    timings = {}

    # -- object path: every statistic pays its own Python BFS ----------
    t0 = time.perf_counter()
    net = MacroStar(7, 1)
    object_diameter = len(net.bfs_layers()) - 1
    timings["object diameter"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net = MacroStar(7, 1)  # fresh instance: no memoised layers
    object_distribution = [len(layer) for layer in net.bfs_layers()]
    timings["object distance_distribution"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net = MacroStar(7, 1)
    dist = [len(layer) for layer in net.bfs_layers()]
    object_average = sum(
        d * c for d, c in enumerate(dist)
    ) / (sum(dist) - 1)
    timings["object average_distance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net = MacroStar(7, 1)
    object_tree = _object_bfs_spanning_tree(net)
    object_hops = sum(
        len(_tree_route(object_tree, u, v)) for u, v in pairs
    )
    timings["object tree+routes"] = time.perf_counter() - t0

    object_total = sum(timings.values())

    # -- compiled path: one shared vectorised BFS ----------------------
    t0 = time.perf_counter()
    net = MacroStar(7, 1)
    compiled = net.compiled()
    compiled.distances  # compile moves + run the BFS (paid once, timed)
    compiled_diameter = net.diameter()
    compiled_distribution = net.distance_distribution()
    compiled_average = net.average_distance()
    compiled_hops = sum(len(net.shortest_path(u, v)) for u, v in pairs)
    compiled_total = time.perf_counter() - t0
    timings["compiled all queries"] = compiled_total

    # same answers before we compare clocks
    assert compiled_diameter == object_diameter
    assert compiled_distribution == object_distribution
    assert abs(compiled_average - object_average) < 1e-9
    assert compiled_hops == object_hops

    speedup = object_total / compiled_total
    lines = [
        f"workload: MS(7,1)  k=8  {net.num_nodes} nodes  "
        f"degree {net.degree}",
        *(
            f"{name:<32s} {seconds * 1000:10.1f} ms"
            for name, seconds in timings.items()
        ),
        f"{'object total':<32s} {object_total * 1000:10.1f} ms",
        f"{'compiled total':<32s} {compiled_total * 1000:10.1f} ms",
        f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)",
    ]
    report("compiled_speedup", lines)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"compiled path only {speedup:.1f}x faster "
        f"(object {object_total:.2f}s vs compiled {compiled_total:.2f}s)"
    )
