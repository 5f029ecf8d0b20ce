"""Explicit Cayley-graph construction and analysis.

A Cayley graph on the symmetric group ``Sym(k)`` with generator set ``G``
has one node per permutation of ``1..k`` and a directed link
``u -> u * g`` for each ``g`` in ``G``.  All networks in the paper — the
ten super Cayley classes and the baselines (star, bubble-sort,
transposition network, rotator) — are instances.

For instances that fit in memory (up to roughly ``9! = 362880`` nodes) the
graph is materialised lazily by breadth-first search from the identity;
vertex symmetry (Cayley graphs are vertex-transitive) means single-source
BFS from the identity already yields the diameter and the distance
distribution of the whole graph, which this module exploits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs import traced
from .compiled import MAX_COMPILE_K, CompiledGraph
from .generators import Generator, GeneratorSet
from .permutations import Permutation, factorial


class CayleyGraph:
    """A (directed) Cayley graph over ``Sym(k)``.

    Parameters
    ----------
    generators:
        The generator set.  If it is inverse-closed the graph may also be
        treated as undirected (the paper's convention of merging opposite
        directed link pairs).
    name:
        Human-readable network name, e.g. ``"MS(2,3)"``.

    Notes
    -----
    Nodes are :class:`~repro.core.permutations.Permutation` objects; links
    are labelled by generator name ("dimension").  The node set is always
    the full symmetric group: every generator family used in the paper
    generates ``Sym(k)`` (we verify connectivity explicitly in tests).
    """

    def __init__(self, generators: GeneratorSet, name: str = "Cayley"):
        self.generators = generators
        self.name = name
        # Memoised computation (graphs are immutable): the identity-rooted
        # BFS layers of the object path, and the compiled array backend.
        self._identity_layers: Optional[List[List[Permutation]]] = None
        self._compiled: Optional[CompiledGraph] = None

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of symbols in node labels."""
        return self.generators.k

    @property
    def num_nodes(self) -> int:
        """``k!`` — Cayley graphs over ``Sym(k)`` have one node per permutation."""
        return factorial(self.k)

    @property
    def degree(self) -> int:
        """Out-degree = in-degree = number of generators."""
        return len(self.generators)

    @property
    def identity(self) -> Permutation:
        """The identity node (conventional routing destination)."""
        return Permutation.identity(self.k)

    def is_undirectable(self) -> bool:
        """True iff the generator set is inverse-closed, so each directed
        link pairs with an opposite one and the graph can be viewed as
        undirected (paper, Section 2.1)."""
        return self.generators.is_inverse_closed()

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def neighbors(self, node: Permutation) -> List[Tuple[Generator, Permutation]]:
        """All ``(generator, neighbour)`` pairs out of ``node``."""
        return [(g, node * g.perm) for g in self.generators]

    def neighbor(self, node: Permutation, dimension: str) -> Permutation:
        """The neighbour of ``node`` across the link named ``dimension``."""
        return node * self.generators[dimension].perm

    def nodes(self) -> Iterator[Permutation]:
        """All nodes (the full symmetric group), lexicographic order."""
        return Permutation.all_permutations(self.k)

    def has_link(self, tail: Permutation, head: Permutation) -> bool:
        """True iff a directed link ``tail -> head`` exists."""
        relative = tail.inverse() * head
        return self.generators.find_by_perm(relative) is not None

    def link_dimension(self, tail: Permutation, head: Permutation) -> str:
        """The dimension name of the link ``tail -> head``."""
        relative = tail.inverse() * head
        gen = self.generators.find_by_perm(relative)
        if gen is None:
            raise ValueError(f"no link from {tail} to {head} in {self.name}")
        return gen.name

    def edges(self) -> Iterator[Tuple[Permutation, str, Permutation]]:
        """All directed links as ``(tail, dimension, head)`` triples."""
        for node in self.nodes():
            for gen in self.generators:
                yield node, gen.name, node * gen.perm

    # ------------------------------------------------------------------
    # Compiled (array-backed) handle
    # ------------------------------------------------------------------

    def can_compile(self) -> bool:
        """True iff the ``k!`` node tables fit in materialisation range
        (``k <= MAX_COMPILE_K`` and within ``COMPILE_BUDGET_BYTES``);
        see :mod:`repro.core.compiled`."""
        from . import compiled as compiled_mod
        return (
            self.k <= MAX_COMPILE_K
            and compiled_mod.estimate_table_bytes(self.k, self.degree)
            <= compiled_mod.COMPILE_BUDGET_BYTES
        )

    def compiled(self) -> CompiledGraph:
        """The memoised array backend (built lazily on first call).

        All whole-graph statistics, shortest paths, and spanning trees
        are served from its cached identity-rooted BFS; raises
        :class:`~repro.core.compiled.CompileBudgetError` beyond
        materialisation range (use the frontier engine).
        """
        if self._compiled is None:
            self._compiled = CompiledGraph(self)
        return self._compiled

    def compiled_or_none(self) -> Optional[CompiledGraph]:
        """The installed array backend, or ``None`` if nothing compiled
        or adopted yet — for accounting walks that must not trigger a
        BFS as a side effect."""
        return self._compiled

    def adopt_compiled(self, compiled: CompiledGraph) -> None:
        """Install a pre-built :class:`CompiledGraph` (e.g. attached
        from a table store) as this graph's backend."""
        if compiled.k != self.k or compiled.gen_names != tuple(
            g.name for g in self.generators
        ):
            raise ValueError(
                f"compiled tables do not match {self.name} "
                f"(k={self.k}, dims={[g.name for g in self.generators]})"
            )
        self._compiled = compiled

    def node_id(self, node: Permutation) -> int:
        """Dense integer ID (Lehmer rank) of ``node`` — the compiled
        backend's index space."""
        if node.k != self.k:
            raise ValueError(f"size mismatch: {node.k} vs {self.k}")
        return node.rank()

    # ------------------------------------------------------------------
    # BFS machinery
    # ------------------------------------------------------------------

    @traced("core.bfs_layers")
    def bfs_layers(
        self,
        source: Optional[Permutation] = None,
        max_depth: Optional[int] = None,
    ) -> List[List[Permutation]]:
        """Breadth-first layers from ``source`` (default: identity).

        Layer ``d`` lists the nodes at distance exactly ``d``.  The full
        identity-rooted run is memoised: graphs are immutable and vertex
        symmetry makes that one BFS answer every whole-graph question,
        so repeated statistic calls stop re-walking the graph.
        """
        source = source if source is not None else self.identity
        cacheable = source == self.identity and max_depth is None
        if cacheable and self._identity_layers is not None:
            return list(self._identity_layers)
        gens = [g.perm for g in self.generators]
        seen = {source}
        layers = [[source]]
        frontier = [source]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: List[Permutation] = []
            for node in frontier:
                for perm in gens:
                    nbr = node * perm
                    if nbr not in seen:
                        seen.add(nbr)
                        next_frontier.append(nbr)
            if next_frontier:
                layers.append(next_frontier)
            frontier = next_frontier
        if cacheable:
            self._identity_layers = layers
            return list(layers)
        return layers

    def distances_from(
        self, source: Optional[Permutation] = None
    ) -> Dict[Permutation, int]:
        """Distance of every reachable node from ``source``."""
        out: Dict[Permutation, int] = {}
        for depth, layer in enumerate(self.bfs_layers(source)):
            for node in layer:
                out[node] = depth
        return out

    def distance(self, source: Permutation, target: Permutation) -> int:
        """Directed distance from ``source`` to ``target``.

        By vertex symmetry this equals the distance from
        ``source.inverse() * target`` to... more precisely from the
        identity to ``source.inverse() * target``, which lets us BFS from
        the identity with early exit.
        """
        if self.can_compile():
            return self.compiled().distance(source, target)
        relative = source.inverse() * target
        for depth, layer in enumerate(self.bfs_layers()):
            if relative in layer:
                return depth
        raise ValueError(
            f"{target} not reachable from {source} in {self.name}"
        )

    def shortest_path(
        self, source: Permutation, target: Permutation
    ) -> List[Tuple[str, Permutation]]:
        """One shortest directed path as ``[(dimension, node), ...]``.

        The returned list starts with the first hop out of ``source``; the
        final entry's node is ``target``.  Empty when ``source == target``.
        """
        if source == target:
            return []
        if self.can_compile():
            # Left translation by ``source`` maps the identity-rooted BFS
            # tree onto the source-rooted one (same discovery order), so
            # the cached parent chain of the relative label is the path.
            compiled = self.compiled()
            relative_id = self.node_id(source.inverse() * target)
            if compiled.distances[relative_id] < 0:
                raise ValueError(
                    f"{target} not reachable from {source} in {self.name}"
                )
            gen_word = compiled.path_gen_ids(relative_id)
            path: List[Tuple[str, Permutation]] = []
            node = source
            for gen_idx in gen_word:
                gen = self.generators[compiled.gen_names[gen_idx]]
                node = node * gen.perm
                path.append((gen.name, node))
            return path
        parents: Dict[Permutation, Tuple[Permutation, str]] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for gen in self.generators:
                nbr = node * gen.perm
                if nbr in parents:
                    continue
                parents[nbr] = (node, gen.name)
                if nbr == target:
                    return self._unwind(parents, source, target)
                queue.append(nbr)
        raise ValueError(f"{target} not reachable from {source} in {self.name}")

    @staticmethod
    def _unwind(parents, source, target):
        path: List[Tuple[str, Permutation]] = []
        node = target
        while node != source:
            prev, dim = parents[node]
            path.append((dim, node))
            node = prev
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Whole-graph statistics (use vertex symmetry: BFS once from identity)
    # ------------------------------------------------------------------

    def diameter(self) -> int:
        """The diameter.  Vertex symmetry makes eccentricity(source) equal
        for every source, but for a *directed* graph the diameter is the
        max over ordered pairs; by symmetry it is still the identity
        node's eccentricity."""
        if self.can_compile():
            return self.compiled().diameter()
        return len(self.bfs_layers()) - 1

    def distance_distribution(self) -> List[int]:
        """``dist[d]`` = number of nodes at distance ``d`` from any fixed node."""
        if self.can_compile():
            return self.compiled().distance_distribution()
        return [len(layer) for layer in self.bfs_layers()]

    def average_distance(self) -> float:
        """Mean internodal distance (over ordered pairs, excluding self)."""
        if self.can_compile():
            return self.compiled().average_distance()
        dist = self.distance_distribution()
        total_nodes = sum(dist)
        weighted = sum(d * count for d, count in enumerate(dist))
        return weighted / (total_nodes - 1)

    def is_connected(self) -> bool:
        """True iff the generators generate all of ``Sym(k)``."""
        if self.can_compile():
            return self.compiled().is_connected()
        return sum(len(layer) for layer in self.bfs_layers()) == self.num_nodes

    def path_nodes(
        self, source: Permutation, dimensions: Iterable[str]
    ) -> List[Permutation]:
        """Walk ``dimensions`` from ``source``; return the visited nodes
        (including ``source``)."""
        nodes = [source]
        for dim in dimensions:
            nodes.append(nodes[-1] * self.generators[dim].perm)
        return nodes

    def apply_word(
        self, source: Permutation, dimensions: Iterable[str]
    ) -> Permutation:
        """The node reached from ``source`` along the generator word."""
        node = source
        for dim in dimensions:
            node = node * self.generators[dim].perm
        return node

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_networkx(self, undirected: Optional[bool] = None):
        """Materialise as a networkx graph.

        Parameters
        ----------
        undirected:
            Force undirected (merging opposite link pairs) or directed.
            Default: undirected exactly when the generator set is
            inverse-closed.

        Only call this for graphs that fit in memory (``k <= 9`` or so).
        """
        import networkx as nx

        if undirected is None:
            undirected = self.is_undirectable()
        graph = nx.Graph() if undirected else nx.DiGraph()
        for node in self.nodes():
            graph.add_node(node)
        for tail, dim, head in self.edges():
            graph.add_edge(tail, head, dimension=dim)
        return graph

    def __repr__(self) -> str:
        return (
            f"<{self.name}: k={self.k}, nodes={self.num_nodes}, "
            f"degree={self.degree}>"
        )


def relabel(graph: CayleyGraph, mapping: Callable[[Permutation], object]):
    """Utility: networkx export with nodes relabelled through ``mapping``."""
    import networkx as nx

    nxg = graph.to_networkx()
    return nx.relabel_nodes(nxg, {node: mapping(node) for node in nxg.nodes})
