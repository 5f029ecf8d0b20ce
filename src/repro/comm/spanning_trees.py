"""Spanning trees and Hamiltonian words on Cayley graphs.

Two constructions back the communication algorithms:

* **BFS spanning trees** — single-source broadcast trees whose
  translations (left multiplication is a graph automorphism of every
  Cayley graph) give each node its own broadcast tree for the MNB,
  following the spanning-tree approach of Fragopoulou & Akl (substitution
  S4 in DESIGN.md);
* **Hamiltonian cycle words** — a generator sequence whose prefix
  products visit every group element exactly once and return; firing the
  sequence network-wide pipelines the SDC multinode broadcast in exactly
  ``N - 1`` rounds, reproducing Mišić & Jovanović's ``k! - 1`` bound.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.cayley import CayleyGraph
from ..core.permutations import Permutation


def bfs_spanning_tree(graph: CayleyGraph) -> Dict[Permutation, Tuple[Permutation, str]]:
    """BFS tree rooted at the identity: ``node -> (parent, dimension)``
    where ``parent * dimension = node``.  The root is absent from the map.

    Served from the graph's shared compiled parent array when the graph
    is materialisable — the same cached BFS that backs the statistics
    and shortest paths.  The object-path fallback below discovers nodes
    in the identical frontier-major, generator-minor order, so both
    produce the same tree (asserted by the differential tests).
    """
    if graph.can_compile():
        return graph.compiled().spanning_tree()
    return _object_bfs_spanning_tree(graph)


def _object_bfs_spanning_tree(
    graph: CayleyGraph,
) -> Dict[Permutation, Tuple[Permutation, str]]:
    """Reference object-path implementation (and large-``k`` fallback)."""
    tree: Dict[Permutation, Tuple[Permutation, str]] = {}
    seen = {graph.identity}
    frontier = [graph.identity]
    while frontier:
        nxt: List[Permutation] = []
        for node in frontier:
            for gen in graph.generators:
                child = node * gen.perm
                if child not in seen:
                    seen.add(child)
                    tree[child] = (node, gen.name)
                    nxt.append(child)
        frontier = nxt
    return tree


def balanced_spanning_tree(
    graph: CayleyGraph,
) -> Dict[Permutation, Tuple[Permutation, str]]:
    """A BFS-depth spanning tree whose per-dimension edge counts are as
    even as greedy selection can make them.

    The translated-tree MNB completes in ``Theta(max_g c_g + depth)``
    rounds, so what matters is the *heaviest* dimension count — this is
    the balancing step of the Fragopoulou-Akl construction
    (substitution S4).  The tree keeps BFS depths (children attach only
    to previous-layer parents) but, among the candidate parent links of
    each node, picks the dimension currently least used.
    """
    # Balance by physical action: parallel generator names sharing one
    # action (IS's I2 / I2^-1) load the same wires, so they share a
    # counter.
    canon: Dict[str, str] = {}
    by_perm: Dict[Permutation, str] = {}
    for g in graph.generators:
        canon[g.name] = by_perm.setdefault(g.perm, g.name)
    counts: Dict[str, int] = {name: 0 for name in by_perm.values()}
    inverse = [
        (g.name, g.perm.inverse()) for g in graph.generators
    ]
    tree: Dict[Permutation, Tuple[Permutation, str]] = {}
    layer = {graph.identity}
    seen = {graph.identity}
    while layer:
        # Discover the next layer first (BFS), then choose parents by
        # current dimension load.
        next_layer = set()
        for node in layer:
            for gen in graph.generators:
                child = node * gen.perm
                if child not in seen:
                    next_layer.add(child)
        for child in next_layer:
            seen.add(child)
        for child in sorted(next_layer, key=lambda p: p.rank()):
            candidates = []
            for name, inv_perm in inverse:
                parent = child * inv_perm
                if parent in layer:
                    candidates.append((counts[canon[name]], name, parent))
            _count, name, parent = min(candidates)
            counts[canon[name]] += 1
            tree[child] = (parent, name)
        layer = next_layer
    return tree


def tree_dimension_counts(
    tree: Dict[Permutation, Tuple[Permutation, str]]
) -> Dict[str, int]:
    """How many tree edges use each dimension — the per-link load of a
    translated-tree MNB (uniform counts = asymptotically optimal MNB)."""
    counts: Dict[str, int] = {}
    for _child, (_parent, dim) in tree.items():
        counts[dim] = counts.get(dim, 0) + 1
    return counts


def tree_path_to_root(
    tree: Dict[Permutation, Tuple[Permutation, str]], node: Permutation
) -> List[str]:
    """Dimensions from the root down to ``node`` (in traversal order)."""
    path: List[str] = []
    current = node
    while current in tree:
        parent, dim = tree[current]
        path.append(dim)
        current = parent
    path.reverse()
    return path


def tree_depth(tree: Dict[Permutation, Tuple[Permutation, str]]) -> int:
    depths: Dict[Permutation, int] = {}

    def depth_of(node: Permutation) -> int:
        if node not in tree:
            return 0
        if node in depths:
            return depths[node]
        parent, _dim = tree[node]
        depths[node] = depth_of(parent) + 1
        return depths[node]

    return max((depth_of(n) for n in tree), default=0)


class HamiltonianSearchError(RuntimeError):
    """Raised when no Hamiltonian cycle is found within the budget."""


def hamiltonian_cycle_word(
    graph: CayleyGraph, max_steps: int = 5_000_000
) -> List[str]:
    """A generator word of length ``N`` whose prefix products are all
    ``N`` nodes and whose full product is the identity — a directed
    Hamiltonian cycle of the Cayley graph usable from every start node
    simultaneously (vertex symmetry).

    Backtracking DFS with a fewest-free-neighbours (Warnsdorff) ordering;
    practical for the instance sizes of the experiments (``k <= 6``).
    """
    n_nodes = graph.num_nodes
    gens = [(g.name, g.perm) for g in graph.generators]
    identity = graph.identity
    visited = {identity}
    word: List[str] = []
    nodes_path = [identity]
    steps = 0

    def free_count(node: Permutation) -> int:
        return sum(1 for _name, perm in gens if node * perm not in visited)

    # Iterative DFS with candidate stacks.
    def candidates(node: Permutation, closing: bool):
        if closing:
            return [
                (name, identity)
                for name, perm in gens
                if node * perm == identity
            ]
        cands = [
            (name, node * perm)
            for name, perm in gens
            if node * perm not in visited
        ]
        cands.sort(key=lambda item: free_count(item[1]), reverse=True)
        return cands  # consumed from the tail: fewest-free first

    stack = [candidates(identity, closing=(n_nodes == 1))]
    while stack:
        steps += 1
        if steps > max_steps:
            raise HamiltonianSearchError(
                f"no Hamiltonian cycle found in {graph.name} within "
                f"{max_steps} steps"
            )
        top = stack[-1]
        if not top:
            stack.pop()
            if word:
                word.pop()
                visited.discard(nodes_path.pop())
            continue
        name, nxt = top.pop()
        word.append(name)
        if nxt == identity and len(word) == n_nodes:
            return word
        visited.add(nxt)
        nodes_path.append(nxt)
        stack.append(candidates(nxt, closing=len(word) == n_nodes - 1))
    raise HamiltonianSearchError(f"{graph.name} has no Hamiltonian cycle")


def hamiltonian_path_word(
    graph: CayleyGraph, max_steps: int = 5_000_000
) -> List[str]:
    """A generator word of length ``N - 1`` whose prefix products (with
    the empty prefix) are the ``N`` distinct nodes — a directed
    Hamiltonian path.  This is all the SDC pipeline MNB needs: firing the
    word network-wide delivers one new packet to every node per round,
    finishing in exactly ``N - 1`` rounds.

    Easier to find than a cycle (no closing constraint); Warnsdorff
    ordering plus dead-end pruning handles the experiment sizes
    (``k <= 6``) quickly.
    """
    n_nodes = graph.num_nodes
    gens = [(g.name, g.perm) for g in graph.generators]
    identity = graph.identity
    visited = {identity}
    word: List[str] = []
    nodes_path = [identity]
    steps = 0

    def free_count(node: Permutation) -> int:
        return sum(1 for _name, perm in gens if node * perm not in visited)

    def candidates(node: Permutation):
        cands = [
            (name, node * perm)
            for name, perm in gens
            if node * perm not in visited
        ]
        cands.sort(key=lambda item: free_count(item[1]), reverse=True)
        return cands  # consumed from the tail: fewest-free first

    stack = [candidates(identity)]
    while stack:
        steps += 1
        if steps > max_steps:
            raise HamiltonianSearchError(
                f"no Hamiltonian path found in {graph.name} within "
                f"{max_steps} steps"
            )
        top = stack[-1]
        if not top:
            stack.pop()
            if word:
                word.pop()
                visited.discard(nodes_path.pop())
            continue
        name, nxt = top.pop()
        word.append(name)
        visited.add(nxt)
        nodes_path.append(nxt)
        if len(word) == n_nodes - 1:
            return word
        stack.append(candidates(nxt))
    raise HamiltonianSearchError(f"{graph.name} has no Hamiltonian path")


def verify_hamiltonian_path_word(graph: CayleyGraph, word: List[str]) -> bool:
    """Check the word's prefix products visit all nodes exactly once."""
    node = graph.identity
    seen = {node}
    for dim in word:
        node = node * graph.generators[dim].perm
        if node in seen:
            return False
        seen.add(node)
    return len(seen) == graph.num_nodes


def verify_hamiltonian_word(graph: CayleyGraph, word: List[str]) -> bool:
    """Check the word's prefix products visit all nodes once and close."""
    node = graph.identity
    seen = {node}
    for dim in word[:-1]:
        node = node * graph.generators[dim].perm
        if node in seen:
            return False
        seen.add(node)
    node = node * graph.generators[word[-1]].perm
    return node == graph.identity and len(seen) == graph.num_nodes
