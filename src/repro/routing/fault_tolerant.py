"""Fault-tolerant routing in super Cayley graphs.

The paper's transposition-network guest (Latifi & Srimani 1996) is
motivated by fault tolerance, and Cayley-graph regularity gives the raw
material: a ``d``-regular vertex-symmetric network has ``d``
node-disjoint source-destination paths (Menger), so up to ``d - 1``
faults leave it routable.  This module provides:

* :class:`FaultSet` — failed nodes and failed (directed) links;
* :func:`fault_tolerant_route` — shortest route avoiding the faults.
  On materialisable graphs it runs on the compiled core's move tables
  (one masked search from both ends, see :mod:`repro.faults.mask`);
  the object-path implementation remains the correctness oracle and
  the only route for large ``k`` (``use_compiled=False`` forces it);
* :func:`valiant_route` — two-phase randomized routing via an
  intermediate node, a classic congestion-smoothing technique that also
  tolerates faults by resampling intermediates;
* :func:`disjoint_paths` — a maximal set of pairwise internally
  node-disjoint paths, greedily extracted (link-disjoint too: each
  accepted path blocks its first *and last* links, so no later path can
  reuse the final link into the target on the directed families);
* :func:`node_connectivity` — exact vertex connectivity via networkx
  (small instances), verifying connectivity = degree for the undirected
  families.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..core.cayley import CayleyGraph
from ..core.permutations import Permutation


@dataclass(frozen=True)
class FaultSet:
    """Failed nodes and failed directed links ``(tail, dimension)``."""

    nodes: FrozenSet[Permutation] = frozenset()
    links: FrozenSet[Tuple[Permutation, str]] = frozenset()

    @staticmethod
    def of(nodes=(), links=()) -> "FaultSet":
        return FaultSet(nodes=frozenset(nodes), links=frozenset(links))

    def blocks_node(self, node: Permutation) -> bool:
        return node in self.nodes

    def blocks_link(self, tail: Permutation, dimension: str) -> bool:
        return (tail, dimension) in self.links

    def __len__(self) -> int:
        return len(self.nodes) + len(self.links)


class RoutingError(RuntimeError):
    """No fault-free route exists (or none within the search budget)."""


def _use_compiled(graph: CayleyGraph, use_compiled: Optional[bool]) -> bool:
    if use_compiled is None:
        return graph.can_compile()
    if use_compiled and not graph.can_compile():
        raise ValueError(
            f"{graph.name} is not materialisable; compiled fault "
            "routing needs k <= MAX_COMPILE_K"
        )
    return use_compiled


def fault_tolerant_route(
    graph: CayleyGraph,
    source: Permutation,
    target: Permutation,
    faults: FaultSet,
    use_compiled: Optional[bool] = None,
) -> List[str]:
    """A shortest route from ``source`` to ``target`` avoiding all
    faults (endpoints themselves must be alive).

    Dispatches to the two-ended masked search of
    :class:`repro.faults.FaultMask` on materialisable graphs (default),
    or the per-call dict BFS reference with ``use_compiled=False``.
    Both return the *same word* (the lexicographically least shortest
    live word, which the FIFO search's tie-breaks pick), asserted
    differentially in ``tests/test_faults.py``.
    """
    if faults.blocks_node(source) or faults.blocks_node(target):
        raise RoutingError("source or target node has failed")
    if source == target:
        return []
    if _use_compiled(graph, use_compiled):
        from ..faults.mask import FaultMask

        word = FaultMask.from_fault_set(graph, faults).route(source, target)
        if word is None:
            raise RoutingError(
                f"no fault-free route {source} -> {target} "
                f"({len(faults)} faults)"
            )
        return word
    return _fault_tolerant_route_object(graph, source, target, faults)


def _fault_tolerant_route_object(
    graph: CayleyGraph,
    source: Permutation,
    target: Permutation,
    faults: FaultSet,
) -> List[str]:
    """The object-path reference: exact FIFO BFS over Permutations."""
    parents = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for gen in graph.generators:
            if faults.blocks_link(node, gen.name):
                continue
            nbr = node * gen.perm
            if nbr in parents or faults.blocks_node(nbr):
                continue
            parents[nbr] = (node, gen.name)
            if nbr == target:
                word: List[str] = []
                current = nbr
                while current != source:
                    prev, dim = parents[current]
                    word.append(dim)
                    current = prev
                word.reverse()
                return word
            queue.append(nbr)
    raise RoutingError(
        f"no fault-free route {source} -> {target} "
        f"({len(faults)} faults)"
    )


def route_is_fault_free(
    graph: CayleyGraph,
    source: Permutation,
    word: List[str],
    faults: FaultSet,
) -> bool:
    """Check a route avoids every fault (endpoints included)."""
    node = source
    if faults.blocks_node(node):
        return False
    for dim in word:
        if faults.blocks_link(node, dim):
            return False
        node = node * graph.generators[dim].perm
        if faults.blocks_node(node):
            return False
    return True


def _endpoint_rng(source: Permutation, target: Permutation) -> random.Random:
    """A deterministic rng seeded from the endpoints.

    ``valiant_route`` used to default to ``random.Random(0)`` per call,
    so every pair sampled the *same* intermediate sequence — defeating
    Valiant's congestion smoothing (all detours funnel through one
    region).  Hashing the endpoint ranks into the seed keeps runs
    reproducible while giving distinct pairs distinct intermediates.
    """
    return random.Random(source.rank() * 0x9E3779B9 + target.rank())


def valiant_route(
    graph: CayleyGraph,
    source: Permutation,
    target: Permutation,
    faults: Optional[FaultSet] = None,
    rng: Optional[random.Random] = None,
    attempts: int = 32,
    use_compiled: Optional[bool] = None,
) -> List[str]:
    """Two-phase Valiant routing: route to a random intermediate, then to
    the target.  With faults, intermediates are resampled until both
    phases survive; falls back to exact BFS on exhaustion.

    On fault-free networks this trades ~2x path length for provably
    smooth link loads under adversarial traffic — the standard trick for
    the paper's uniform-traffic regime.  Without an explicit ``rng`` the
    intermediate stream is seeded from the endpoints (deterministic per
    pair, different across pairs).
    """
    faults = faults or FaultSet()
    rng = rng or _endpoint_rng(source, target)
    if source == target:
        return []
    for _ in range(attempts):
        middle = Permutation.random(graph.k, rng)
        if faults.blocks_node(middle):
            continue
        try:
            first = fault_tolerant_route(
                graph, source, middle, faults, use_compiled=use_compiled
            )
            second = fault_tolerant_route(
                graph, middle, target, faults, use_compiled=use_compiled
            )
        except RoutingError:
            continue
        return first + second
    return fault_tolerant_route(
        graph, source, target, faults, use_compiled=use_compiled
    )


def disjoint_paths(
    graph: CayleyGraph,
    source: Permutation,
    target: Permutation,
    use_compiled: Optional[bool] = None,
) -> List[List[str]]:
    """A maximal greedy set of internally node-disjoint routes.

    Repeatedly BFS-routes while treating all interior nodes of earlier
    paths as failed.  Cayley-graph connectivity theory promises up to
    ``degree`` such paths for the undirected families; the greedy
    extraction is a lower bound witness, checked against networkx in the
    tests.  The returned paths are also pairwise *link*-disjoint: each
    accepted path blocks its first link (so a zero-interior direct path
    cannot be extracted twice) and its last link (so on the directed
    families a later path cannot reuse an earlier path's final link
    into the target — interior-node blocking alone does not forbid
    that).
    """
    if source == target:
        return []
    if _use_compiled(graph, use_compiled):
        from ..faults.mask import FaultMask

        return FaultMask(graph).disjoint_route_words(source, target)
    paths: List[List[str]] = []
    blocked_nodes: Set[Permutation] = set()
    blocked_links: Set[Tuple[Permutation, str]] = set()
    while True:
        faults = FaultSet.of(nodes=blocked_nodes, links=blocked_links)
        try:
            word = _fault_tolerant_route_object(
                graph, source, target, faults
            )
        except RoutingError:
            return paths
        paths.append(word)
        nodes = graph.path_nodes(source, word)
        # Interior nodes become unusable; the first and last links too,
        # so neither endpoint link can be reused by a later path.
        blocked_nodes.update(nodes[1:-1])
        blocked_links.add((source, word[0]))
        blocked_links.add((nodes[-2], word[-1]))


def node_connectivity(graph: CayleyGraph) -> int:
    """Exact vertex connectivity (networkx; small instances only)."""
    import networkx as nx

    nxg = graph.to_networkx(undirected=True)
    return nx.node_connectivity(nxg)


def survives_faults(
    graph: CayleyGraph,
    faults: FaultSet,
    samples: int = 20,
    seed: int = 0,
    use_compiled: Optional[bool] = None,
) -> bool:
    """Spot-check that random live pairs remain routable under the
    fault set (same rng stream on both the compiled and object paths,
    so the two are exactly comparable)."""
    if _use_compiled(graph, use_compiled):
        from ..faults.mask import FaultMask

        return FaultMask.from_fault_set(graph, faults).survives(
            samples=samples, seed=seed
        )
    rng = random.Random(seed)
    for _ in range(samples):
        source = Permutation.random(graph.k, rng)
        target = Permutation.random(graph.k, rng)
        if faults.blocks_node(source) or faults.blocks_node(target):
            continue
        if source == target:
            continue
        try:
            _fault_tolerant_route_object(graph, source, target, faults)
        except RoutingError:
            return False
    return True
