"""Routing-table ablation: the compiled identity-rooted BFS tree serves
all N^2 pairs (vertex symmetry), versus per-query BFS."""

import random
import time

from repro.core.permutations import Permutation
from repro.networks import MacroStar


def test_table_vs_bfs_queries(benchmark, report):
    net = MacroStar(2, 2)
    net.compiled().distances  # build the tables before timing lookups
    rng = random.Random(83)
    pairs = [
        (Permutation.random(5, rng), Permutation.random(5, rng))
        for _ in range(200)
    ]

    # `shortest_path` walks the compiled identity-rooted BFS tree
    # whenever the network can compile, so a per-query *BFS* — the
    # ablation this benchmark claims to measure — needs the compiled
    # path forced off on a separate instance.
    bfs_net = MacroStar(2, 2)
    bfs_net.can_compile = lambda: False

    def timed(graph):
        start = time.perf_counter()
        words = [
            [d for d, _ in graph.shortest_path(u, v)] for u, v in pairs
        ]
        return words, time.perf_counter() - start

    def compute():
        table_words, table_time = timed(net)
        bfs_words, bfs_time = timed(bfs_net)
        return table_words, table_time, bfs_words, bfs_time

    table_words, table_time, bfs_words, bfs_time = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    assert table_words == bfs_words  # the same shortest routes
    speedup = bfs_time / table_time if table_time else float("inf")
    report(
        "routing_tables",
        [f"{net.name}: 200 random shortest-path queries",
         f"table walks   : {table_time * 1e3:.1f} ms "
         f"(one identity-rooted BFS tree, {net.num_nodes} nodes)",
         f"per-query BFS : {bfs_time * 1e3:.1f} ms",
         f"speedup       : {speedup:.0f}x, identical words"],
    )
    # Wall-clock ratios vary with machine load; the structural claim is
    # that table walks beat BFS while returning identical shortest routes.
    assert speedup > 1
