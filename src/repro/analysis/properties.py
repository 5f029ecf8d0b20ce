"""Structural property tables for the ten super Cayley families
(Section 2's claims: regularity, vertex symmetry, degrees, diameters).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..core.cayley import CayleyGraph
from ..core.permutations import Permutation
from ..core.super_cayley import SuperCayleyNetwork


def network_profile(
    network: CayleyGraph,
    exact: bool = True,
    method: str = "auto",
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, object]:
    """A property row: name, k, nodes, degree, directedness, and (when
    ``exact``) BFS diameter and average distance.

    ``method`` selects how the exact statistics are computed:
    ``"compiled"`` reads the network's cached identity-rooted BFS
    (compiled arrays within materialisation range, memoised object
    layers otherwise); ``"frontier"`` runs the memory-bounded frontier
    engine (:mod:`repro.frontier`) instead — the only route past the
    ``k!`` table wall; ``"auto"`` picks compiled when the instance can
    compile and frontier beyond.  Either way a profile row costs a
    single search no matter how many statistics it reports."""
    if method not in ("auto", "compiled", "frontier"):
        raise ValueError(f"unknown method {method!r}")
    row: Dict[str, object] = {
        "name": network.name,
        "k": network.k,
        "nodes": network.num_nodes,
        "degree": network.degree,
        "undirected": network.is_undirectable(),
    }
    if not exact:
        return row
    if method == "frontier" or (
        method == "auto" and not network.can_compile()
    ):
        from ..frontier import frontier_profile

        kwargs = {}
        if memory_budget_bytes is not None:
            kwargs["memory_budget_bytes"] = memory_budget_bytes
        result = frontier_profile(network, **kwargs)
        row["diameter"] = result.diameter
        row["avg_distance"] = round(
            average_distance_from_layers(result.layer_sizes), 3
        )
        row["method"] = "frontier"
    else:
        row["diameter"] = network.diameter()
        row["avg_distance"] = round(network.average_distance(), 3)
    return row


def average_distance_from_layers(layer_sizes) -> float:
    """Mean identity-distance from a BFS layer profile alone —
    ``sum(d * width_d) / (N - 1)`` over reached non-identity nodes."""
    reached = sum(layer_sizes)
    if reached < 2:
        return 0.0
    weighted = sum(d * width for d, width in enumerate(layer_sizes))
    return weighted / (reached - 1)


def sampled_distances(
    network: CayleyGraph,
    pairs: int = 32,
    seed: int = 0,
    method: str = "auto",
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, object]:
    """Seeded sampled-pair distance estimate with mean and 95% CI.

    Draws ``pairs`` uniform ``(source, target)`` permutation pairs and
    measures each directed distance — through the cached compiled
    tables when the instance materialises (``method="compiled"`` /
    ``"auto"``), or through meet-in-the-middle bidirectional frontier
    search (:func:`repro.frontier.pair_distance`) beyond the table
    wall.  The same ``seed`` draws the same pairs under either method,
    which is what the differential test in ``tests/test_frontier.py``
    leans on.  The CI is the normal approximation
    ``mean ± 1.96 · s/√n``.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    if method not in ("auto", "compiled", "frontier"):
        raise ValueError(f"unknown method {method!r}")
    import random

    rng = random.Random(seed)
    use_frontier = method == "frontier" or (
        method == "auto" and not network.can_compile()
    )
    samples = []
    for _ in range(pairs):
        source = Permutation.random(network.k, rng)
        target = Permutation.random(network.k, rng)
        if use_frontier:
            from ..frontier import pair_distance

            kwargs = {}
            if memory_budget_bytes is not None:
                kwargs["memory_budget_bytes"] = memory_budget_bytes
            d = pair_distance(network, source, target, **kwargs)
            if d < 0:
                raise ValueError(
                    f"{target} not reachable from {source} "
                    f"in {network.name}"
                )
        else:
            d = network.distance(source, target)
        samples.append(int(d))
    n = len(samples)
    mean = sum(samples) / n
    var = (
        sum((s - mean) ** 2 for s in samples) / (n - 1) if n > 1 else 0.0
    )
    half = 1.96 * math.sqrt(var / n)
    return {
        "network": network.name,
        "k": network.k,
        "pairs": n,
        "seed": seed,
        "method": "frontier" if use_frontier else "compiled",
        "samples": samples,
        "mean": mean,
        "std": math.sqrt(var),
        "ci95": (mean - half, mean + half),
        "min": min(samples),
        "max": max(samples),
    }


def is_vertex_symmetric_sample(
    network: CayleyGraph, samples: int = 4, seed: int = 0
) -> bool:
    """Spot-check vertex symmetry: the distance profile from random
    nodes matches the profile from the identity.  (Cayley graphs are
    vertex-transitive by construction — left translations are
    automorphisms — so this is a sanity check of the implementation,
    not of the mathematics.)"""
    import random

    rng = random.Random(seed)
    reference = sorted(network.distances_from(network.identity).values())
    for _ in range(samples):
        source = Permutation.random(network.k, rng)
        profile = sorted(network.distances_from(source).values())
        if profile != reference:
            return False
    return True


def is_regular(network: CayleyGraph) -> bool:
    """Every node has out-degree = |generators| by construction; check
    the in-degree too (each generator is a bijection, so in-degree
    matches out-degree).

    On the compiled backend this is one ``bincount`` over the move
    tables instead of a Python loop over all ``N * degree`` edges."""
    if network.can_compile():
        import numpy as np

        moves = network.compiled().moves
        indeg = np.bincount(moves.ravel(), minlength=network.num_nodes)
        return bool((indeg == network.degree).all())
    from collections import Counter

    indeg = Counter()
    for _tail, _dim, head in network.edges():
        indeg[head] += 1
    values = set(indeg.values())
    return values == {network.degree}


def degree_formula(network: SuperCayleyNetwork) -> int:
    """The closed-form degree of each family (Section 2.2)."""
    l, n = network.l, network.n
    family = network.family
    if family in ("MS", "complete-RS"):
        return n + l - 1
    if family in ("RS", "RR"):
        return n + (1 if l == 2 else 2)
    if family in ("MR",):
        return n + l - 1
    if family == "complete-RR":
        return n + l - 1
    if family == "IS":
        return 2 * (network.k - 1)
    if family in ("MIS", "complete-RIS"):
        return 2 * n + l - 1
    if family == "RIS":
        return 2 * n + (1 if l == 2 else 2)
    raise ValueError(f"unknown family {family!r}")


def traffic_is_uniform(link_traffic: Dict, factor: float = 4.0) -> bool:
    """Section 1: "the traffic on all the links ... is uniform within a
    constant factor"."""
    if not link_traffic:
        return True
    values = list(link_traffic.values())
    return max(values) <= factor * min(values)
