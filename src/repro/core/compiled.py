"""Array-backed (compiled) Cayley graph engine.

The object frontend (:class:`~repro.core.cayley.CayleyGraph` over
:class:`~repro.core.permutations.Permutation` nodes) recomputes a full
breadth-first search for every statistic it serves, one Python-level
permutation multiply per edge.  For every instance the paper's tables
actually materialise (``k <= 9``, so at most ``9! = 362880`` nodes) the
same information fits comfortably in a handful of numpy arrays:

* nodes are **Lehmer ranks** — dense integers ``0 .. k!-1`` in
  lexicographic label order (rank 0 is the identity), interchangeable
  with ``Permutation.rank()`` / ``Permutation.unrank()``;
* each generator ``g`` compiles to a **move table** ``move_g`` with
  ``move_g[r] = rank(perm_r * g)``, so "apply ``g`` to a whole BFS
  frontier" is one fancy-index operation;
* a single identity-rooted whole-frontier BFS yields the ``distances``
  array, per-layer node lists, and the BFS **parent** arrays — all at
  once, cached forever (Cayley graphs are immutable).  The parent tree
  is the broadcast tree of :mod:`repro.comm.spanning_trees` and, by
  vertex transitivity, a shortest route from every source: the route
  ``u -> v`` is the tree path to ``u^{-1} v`` translated by ``u``
  (:meth:`~repro.core.cayley.CayleyGraph.shortest_path`).

That BFS, the reverse one, the fault-masked ones and the server's route
tables all run one kernel, :func:`layered_bfs`; the fault routes'
two-ended :func:`meet_distances` grows its balls with the same layer
step.  The kernel visits candidates in exactly the frontier-major,
generator-minor order of the object-based FIFO implementations, so
distances, layer contents, and tree parents match the object path
*exactly*, which the differential tests in
``tests/test_compiled.py`` assert on all ten network families.

The object path remains the reference implementation and the only route
for ``k`` beyond materialisation range; :class:`CompiledGraph` refuses
``k > MAX_COMPILE_K`` outright.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..obs import get_tracer
from .permutations import Permutation, factorial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cayley import CayleyGraph

#: largest ``k`` whose ``k!`` node tables we are willing to materialise
#: (``9! = 362880`` nodes: ~0.7 MB per int16 table, ~1.5 MB per int32).
MAX_COMPILE_K = 9

#: hard ceiling on the *estimated* byte footprint of one instance's
#: compiled tables (labels + moves + inverse moves + BFS products).
#: Checked before any allocation happens so a mis-sized request fails
#: with :class:`CompileBudgetError` instead of freezing the host in a
#: multi-GB allocation.  Deliberately generous for every ``k`` within
#: ``MAX_COMPILE_K`` (the largest k=9 instance is ~35 MB all in) while
#: refusing k=10 (~350 MB) on the byte estimate alone.
COMPILE_BUDGET_BYTES = 256 * 1024 * 1024


class CompileBudgetError(ValueError):
    """Compiled tables for this instance would exceed the budget.

    Subclasses ``ValueError`` so existing ``can_compile()``-style
    guards keep working; the message points at the frontier engine
    (:mod:`repro.frontier`), which explores the same graph under a
    fixed memory bound without materialising the node set.
    """


def estimate_table_bytes(k: int, degree: int) -> int:
    """Estimated bytes of a fully materialised :class:`CompiledGraph`.

    Per node: ``k`` label bytes, ``4 * degree`` move-table bytes plus
    the same again for inverse moves, and 12 bytes of BFS products
    (distances int16 + parent int32 + parent_gen int16 + order int32,
    with layer offsets amortised to ~0).
    """
    return factorial(k) * (k + 8 * max(1, degree) + 12)


# ----------------------------------------------------------------------
# Vectorised Lehmer ranking
# ----------------------------------------------------------------------


#: rows :func:`rank_array` ranks per pass, so that a block's working
#: columns stay in cache (32768 was fastest at k = 9-11 on a 2-vCPU
#: Xeon host).
_RANK_BLOCK_ROWS = 32768


def rank_array(labels: np.ndarray) -> np.ndarray:
    """Lehmer ranks of a batch of permutation labels.

    ``labels`` is an ``(m, k)`` array of 1-based one-line labels (each
    row a permutation of ``1..k``, ``k <= 20`` so ranks fit int64); the
    result is an ``(m,)`` int64 array matching :meth:`Permutation.rank`
    row-wise.  The Lehmer digit at position ``i`` is the number of later
    symbols smaller than ``labels[:, i]``.  Scanning the columns right
    to left with a bitmask of the symbols seen so far makes each digit
    one popcount, so a batch takes O(k) vector passes.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels[None, :]
    m, k = labels.shape
    ranks = np.zeros(m, dtype=np.int64)
    one = np.uint32(1)
    for lo in range(0, m, _RANK_BLOCK_ROWS):
        block = labels[lo:lo + _RANK_BLOCK_ROWS]
        out = ranks[lo:lo + _RANK_BLOCK_ROWS]
        seen = np.zeros(block.shape[0], dtype=np.uint32)
        radix = 1  # (k - 1 - i)!
        for i in range(k - 1, -1, -1):
            bit = one << (block[:, i].astype(np.uint32) - one)
            out += np.bitwise_count(seen & (bit - one)) * np.int64(radix)
            seen |= bit
            radix *= k - i
    return ranks


def unrank_array(k: int, ranks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rank_array`: labels for a batch of ranks.

    Returns an ``(m, k)`` array of 1-based labels matching
    :meth:`Permutation.unrank` row-wise.  Implemented as a vectorised
    pool-pop: Lehmer digits select from (and shrink) a per-row pool of
    unused symbols.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    scalar = ranks.ndim == 0
    ranks = np.atleast_1d(ranks)
    if ranks.size and (ranks.min() < 0 or ranks.max() >= factorial(k)):
        raise ValueError(f"rank out of range 0..{factorial(k) - 1}")
    m = ranks.shape[0]
    dtype = np.int8 if k < 128 else np.int16
    out = np.empty((m, k), dtype=dtype)
    pool = np.tile(np.arange(1, k + 1, dtype=dtype), (m, 1))
    for i in range(k):
        radix = factorial(k - 1 - i)
        digits = (ranks // radix) % (k - i)
        out[:, i] = np.take_along_axis(pool, digits[:, None], axis=1)[:, 0]
        if k - i > 1:
            # Delete the chosen element: shift the tail left by one.
            keep = np.arange(k - i - 1)[None, :]
            keep = keep + (keep >= digits[:, None])
            pool = np.take_along_axis(pool, keep, axis=1)
    return out[0] if scalar else out


def permutation_table(k: int) -> np.ndarray:
    """All ``k!`` one-line labels in rank (= lexicographic) order.

    Row ``r`` is ``Permutation.unrank(k, r).symbols``.
    """
    if not 1 <= k <= MAX_COMPILE_K:
        raise ValueError(
            f"k = {k} outside materialisable range 1..{MAX_COMPILE_K}"
        )
    return unrank_array(k, np.arange(factorial(k), dtype=np.int64))


def parity_array(labels: np.ndarray) -> np.ndarray:
    """Parity (0 even / 1 odd) of each label row, vectorised.

    Total inversions equal the sum of Lehmer digits, so parity is that
    sum mod 2.
    """
    labels = np.asarray(labels)
    k = labels.shape[1]
    inversions = np.zeros(labels.shape[0], dtype=np.int64)
    for i in range(k - 1):
        inversions += np.sum(labels[:, i + 1:] < labels[:, i:i + 1], axis=1)
    return (inversions & 1).astype(np.int8)


# ----------------------------------------------------------------------
# The layered BFS kernel
# ----------------------------------------------------------------------


def first_occurrence(keys: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The entries of ``fresh`` (ascending positions into ``keys``)
    holding the first copy of each distinct key, in ascending order.

    This is the tie-break every search shares: candidates arrive
    frontier-major, generator-minor, and the first unvisited copy of a
    node claims it — the FIFO discovery order of the object path.
    """
    _, first = np.unique(keys[fresh], return_index=True)
    first.sort()
    return fresh[first]


def next_layer(table: np.ndarray, frontier: np.ndarray, dist: np.ndarray,
               depth: int, keep=None) -> np.ndarray:
    """One distance-only BFS step: label ``depth + 1`` in ``dist`` every
    unlabelled successor of ``frontier`` (the ranks at ``depth``) that
    ``keep`` passes, and return those ranks in ascending order."""
    cand = table[:, frontier].T  # (f, degree): frontier-major
    ok = dist[cand] < 0
    if keep is not None:
        ok &= keep(frontier, cand)
    # mark, then scan: ascending like np.unique, without its sort
    # (visiting order cannot change a distance)
    dist[cand[ok]] = depth + 1
    return np.flatnonzero(dist == depth + 1)


def layered_bfs(table: np.ndarray, root: int, keep=None,
                tree: bool = False):
    """Layer-by-layer BFS over a ``(degree, n)`` successor table.

    ``table`` is ``moves`` for a forward search or ``inverse_moves``
    for a target-rooted one.  ``keep(frontier, cand)`` may return an
    ``(f, degree)`` boolean filter over the candidates (the fault
    masks).  Returns the ``int16`` distances (``-1`` where unreached),
    one :func:`next_layer` step per layer; with ``tree=True`` returns
    ``(distances, parent, parent_gen, order, layer_starts)``, ties
    broken by :func:`first_occurrence`.
    """
    degree, n = table.shape
    dist = np.full(n, -1, dtype=np.int16)
    dist[root] = 0
    frontier = np.asarray([root], dtype=np.int32)
    depth = 0
    if not tree:
        while frontier.size:
            frontier = next_layer(table, frontier, dist, depth, keep)
            depth += 1
        return dist
    parent = np.full(n, -1, dtype=np.int32)
    parent_gen = np.full(n, -1, dtype=np.int16)
    layers = [frontier]
    while frontier.size:
        cand = table[:, frontier].T  # (f, degree): frontier-major
        ok = dist[cand] < 0
        if keep is not None:
            ok &= keep(frontier, cand)
        flat = cand.ravel()
        sel = first_occurrence(flat, np.flatnonzero(ok))
        new = flat[sel]
        dist[new] = depth + 1
        if not new.size:
            break
        depth += 1
        parent[new] = frontier[sel // degree]
        parent_gen[new] = sel % degree
        layers.append(new)
        frontier = new
    starts = np.cumsum([0] + list(map(len, layers)), dtype=np.int64)
    return dist, parent, parent_gen, np.concatenate(layers), starts


def meet_distances(moves: np.ndarray, inverse_moves: np.ndarray,
                   source: int, target: int, forward_keep=None,
                   reverse_keep=None) -> np.ndarray:
    """Distances to ``target`` on every shortest ``source -> target``
    path, by a search from both ends.

    A forward ball grows from ``source`` over ``moves`` and a backward
    ball from ``target`` over ``inverse_moves``, one :func:`next_layer`
    step at a time, the side with the smaller frontier first (forward
    on a tie), filtered by ``forward_keep`` / ``reverse_keep`` as in
    :func:`layered_bfs`.  They stop when a new layer holds a rank the
    other side has labelled: the balls then meet in forward layer ``a``
    at backward depth ``b``, and the route is ``d = a + b`` long.  A
    walk back through the forward layers keeps, at each depth, the
    ranks with a kept link into the next depth's on-path ranks (at
    depth ``a``, those the backward ball labels) and labels them
    ``d - depth``.

    Returns the backward ball plus those ranks as an ``int16``
    distances-to-target table (``-1`` elsewhere).  Every label is the
    exact distance, and every kept successor of a labelled rank that is
    one step closer to the target is labelled, so :func:`descend` from
    ``source`` takes the full table's word.  If either side runs out
    first, ``source`` reads ``-1``.  Both endpoints count as passed:
    guard them before calling.
    """
    n = moves.shape[1]
    forward = np.full(n, -1, dtype=np.int16)
    forward[source] = 0
    backward = np.full(n, -1, dtype=np.int16)
    backward[target] = 0
    layers = [np.asarray([source], dtype=np.int32)]
    back_frontier = np.asarray([target], dtype=np.int32)
    b = 0
    while not (backward[layers[-1]] >= 0).any():
        if layers[-1].size <= back_frontier.size:
            new = next_layer(moves, layers[-1], forward, len(layers) - 1,
                             forward_keep)
            if not new.size:
                return backward
            layers.append(new)
        else:
            back_frontier = next_layer(inverse_moves, back_frontier,
                                       backward, b, reverse_keep)
            if not back_frontier.size:
                return backward
            b += 1
    d = len(layers) - 1 + b
    for depth in range(len(layers) - 2, -1, -1):
        layer = layers[depth]
        cand = moves[:, layer].T
        on_path = backward[cand] == d - depth - 1
        if forward_keep is not None:
            on_path &= forward_keep(layer, cand)
        backward[layer[on_path.any(axis=1)]] = d - depth
    return backward


def tree_word(parent: np.ndarray, parent_gen: np.ndarray, root: int,
              node: int) -> List[int]:
    """Generator indices of the BFS-tree path ``root -> node``."""
    word: List[int] = []
    while node != root:
        word.append(int(parent_gen[node]))
        node = int(parent[node])
    word.reverse()
    return word


def tree_words(parent: np.ndarray, parent_gen: np.ndarray, ids: np.ndarray,
               depths: np.ndarray) -> List[List[int]]:
    """:func:`tree_word` for a batch of nodes at tree depths ``depths``:
    every row steps up the ``parent`` chain in the same array step,
    filling its word from the last letter back.  Rows shallower than
    the deepest keep stepping past the root (its ``parent`` -1 indexes
    the last rank); only a row's last ``depth`` letters are its word."""
    depths = np.asarray(depths, dtype=np.int64)
    width = int(depths.max(initial=0))
    words = np.empty((depths.size, width), dtype=np.int64)
    node = np.asarray(ids)
    for col in range(width - 1, -1, -1):
        words[:, col] = parent_gen[node]
        node = parent[node]
    return [word[width - d:] for word, d in
            zip(words.tolist(), depths.tolist())]


def descend(moves: np.ndarray, dist_to: np.ndarray, source: int,
            target: int, node_ok: Optional[np.ndarray] = None,
            link_ok: Optional[np.ndarray] = None) -> Optional[List[int]]:
    """A shortest route ``source -> target`` (``None`` if unreachable)
    by greedy descent on a distances-to-target table: at each node take
    the first generator whose head is one step closer.  ``node_ok`` and
    ``link_ok`` (given together) are a fault mask its links must pass.
    """
    if dist_to[source] < 0 or (node_ok is not None and not node_ok[source]):
        return None
    word: List[int] = []
    current = int(source)
    while current != target:
        closer = dist_to[current] - 1
        for g in range(moves.shape[0]):
            head = int(moves[g, current])
            if dist_to[head] == closer and (
                link_ok is None or link_ok[g, current] and node_ok[head]
            ):
                word.append(g)
                current = head
                break
        else:  # pragma: no cover - the table guarantees progress
            return None
    return word


# ----------------------------------------------------------------------
# The compiled backend
# ----------------------------------------------------------------------


class CompiledGraph:
    """Integer-indexed, array-backed view of a :class:`CayleyGraph`.

    Construction compiles nothing: the label table, the per-generator
    move tables, and the identity-rooted BFS are each built lazily on
    first use and cached (the graph is immutable).  All arrays may also
    be attached wholesale from a table store via :meth:`from_store`.

    Attributes (after the BFS has run)
    ----------------------------------
    distances:
        ``int16[k!]`` — distance from the identity to every rank
        (``-1`` for unreachable ranks of non-generating sets).
    parent / parent_gen:
        ``int32[k!]`` / ``int16[k!]`` — BFS-tree predecessor rank and
        the generator index with ``parent * gen = node``.  Identical to
        the object-based BFS spanning tree; walking it gives every
        shortest route (:func:`tree_word`).
    order / layer_starts:
        ranks in discovery order, and offsets such that layer ``d`` is
        ``order[layer_starts[d]:layer_starts[d + 1]]``.
    """

    def __init__(self, graph: "CayleyGraph"):
        estimate = estimate_table_bytes(graph.k, graph.degree)
        if graph.k > MAX_COMPILE_K or estimate > COMPILE_BUDGET_BYTES:
            raise CompileBudgetError(
                f"{graph.name}: compiling k = {graph.k} "
                f"({graph.num_nodes} nodes) would materialise "
                f"~{estimate} bytes of tables (budget "
                f"{COMPILE_BUDGET_BYTES}) — use the frontier engine "
                "(repro.frontier.FrontierBFS / `repro frontier`) for "
                "memory-bounded exploration instead"
            )
        self.graph = graph
        self.k = graph.k
        self.num_nodes = graph.num_nodes
        self.gen_names: tuple = tuple(g.name for g in graph.generators)
        self._gen_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.gen_names)
        }
        self._labels: Optional[np.ndarray] = None
        self._moves: Optional[np.ndarray] = None
        self._dist: Optional[np.ndarray] = None
        self._parent: Optional[np.ndarray] = None
        self._parent_gen: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._layer_starts: Optional[np.ndarray] = None
        self._reverse_dist: Optional[np.ndarray] = None
        self._inverse_moves: Optional[np.ndarray] = None
        self._perm_cache: Dict[int, Permutation] = {}
        #: names of arrays that are zero-copy views into a host-shared
        #: store (see :meth:`from_store`) rather than private copies.
        self._attached: frozenset = frozenset()
        #: the store handle the attached views come from.
        self._store = None

    # -- construction helpers ------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """``(k!, k)`` one-line labels in rank order (lazy)."""
        if self._labels is None:
            self._labels = permutation_table(self.k)
        return self._labels

    @property
    def moves(self) -> np.ndarray:
        """``(degree, k!)`` move tables: ``moves[g][r] = rank(perm_r * gen_g)``."""
        if self._moves is None:
            self._moves = self._compile_moves()
        return self._moves

    def _compile_moves(self) -> np.ndarray:
        with get_tracer().span(
            "compiled.moves", network=self.graph.name, nodes=self.num_nodes
        ):
            labels = self.labels
            moves = np.empty(
                (len(self.gen_names), self.num_nodes), dtype=np.int32
            )
            for gi, gen in enumerate(self.graph.generators):
                # (p * g)(i) = p(g(i)): permute label columns by g.
                g_idx = np.asarray(gen.perm.symbols, dtype=np.int64) - 1
                moves[gi] = rank_array(labels[:, g_idx])
            return moves

    # -- BFS -----------------------------------------------------------

    def _ensure_bfs(self) -> None:
        if self._dist is None:
            self._run_bfs()

    def _run_bfs(self) -> None:
        """The kernel's tree from the identity (rank 0)."""
        with get_tracer().span(
            "compiled.bfs", network=self.graph.name, nodes=self.num_nodes
        ) as span:
            dist, parent, parent_gen, order, starts = layered_bfs(
                self.moves, 0, tree=True
            )
            self._dist = dist
            self._parent = parent
            self._parent_gen = parent_gen
            self._order = order
            self._layer_starts = starts
            span.set(depth=len(starts) - 2, reached=int(order.size))

    @classmethod
    def from_store(cls, graph: "CayleyGraph", handle) -> "CompiledGraph":
        """Build a compiled view over a host-shared table store.

        ``handle`` is a :class:`repro.core.tablestore.StoreHandle`
        whose arrays are zero-copy **read-only** views into a mmap'd
        store file — nothing is copied, so forty workers attaching one
        MS(7,1) store hold one physical copy of its tables between
        them.  The handle is retained on the instance, which is how
        the serve engine learns whether it created the store.
        """
        compiled = cls(graph)
        n, degree = graph.num_nodes, len(compiled.gen_names)
        # plain ndarray views: a subclass's Python-level indexing hooks
        # would otherwise tax every table lookup
        arrays = {name: np.asarray(a) for name, a in handle.arrays.items()}
        for name, shape in (
            ("labels", (n, graph.k)), ("moves", (degree, n)),
            ("inverse_moves", (degree, n)), ("distances", (n,)),
            ("parent", (n,)), ("parent_gen", (n,)),
        ):
            if arrays[name].shape != shape:
                raise ValueError(
                    f"{name} has shape {arrays[name].shape}, "
                    f"expected {shape}"
                )
        compiled._labels = arrays["labels"]
        compiled._moves = arrays["moves"]
        compiled._inverse_moves = arrays["inverse_moves"]
        compiled._dist = arrays["distances"]
        compiled._parent = arrays["parent"]
        compiled._parent_gen = arrays["parent_gen"]
        compiled._order = arrays["order"]
        compiled._layer_starts = arrays["layer_starts"]
        compiled._attached = frozenset(arrays)
        compiled._store = handle
        return compiled

    @property
    def attached(self) -> bool:
        """True when the table arrays are views into a shared store."""
        return bool(self._attached)

    def table_nbytes(self) -> Dict[str, int]:
        """Byte accounting of materialised tables: ``private`` (owned
        by this process) vs ``shared`` (views into a host store) —
        what the ``serve.table_bytes`` gauge and the worker-count
        benchmark report."""
        cached = {
            "labels": self._labels,
            "moves": self._moves,
            "inverse_moves": self._inverse_moves,
            "distances": self._dist,
            "parent": self._parent,
            "parent_gen": self._parent_gen,
            "order": self._order,
            "layer_starts": self._layer_starts,
        }
        totals = {"private": 0, "shared": 0}
        for name, arr in cached.items():
            if arr is None:
                continue
            kind = "shared" if name in self._attached else "private"
            totals[kind] += int(arr.nbytes)
        return totals

    # -- node-id conversion --------------------------------------------

    def node_id(self, perm: Permutation) -> int:
        """Dense integer ID (= Lehmer rank) of a node label."""
        if perm.k != self.k:
            raise ValueError(f"size mismatch: {perm.k} vs {self.k}")
        return perm.rank()

    def node(self, node_id: int) -> Permutation:
        """The :class:`Permutation` for a node ID (interned per graph)."""
        cached = self._perm_cache.get(node_id)
        if cached is None:
            cached = Permutation(int(s) for s in self.labels[node_id])
            self._perm_cache[node_id] = cached
        return cached

    def gen_index(self, dimension: str) -> int:
        return self._gen_index[dimension]

    def neighbor_id(self, node_id: int, dimension: str) -> int:
        """The neighbour across ``dimension``, in ID space."""
        return int(self.moves[self._gen_index[dimension]][node_id])

    # -- cached BFS products -------------------------------------------

    @property
    def distances(self) -> np.ndarray:
        self._ensure_bfs()
        return self._dist

    @property
    def parent(self) -> np.ndarray:
        self._ensure_bfs()
        return self._parent

    @property
    def parent_gen(self) -> np.ndarray:
        self._ensure_bfs()
        return self._parent_gen

    @property
    def order(self) -> np.ndarray:
        self._ensure_bfs()
        return self._order

    @property
    def layer_starts(self) -> np.ndarray:
        self._ensure_bfs()
        return self._layer_starts

    def num_layers(self) -> int:
        return len(self.layer_starts) - 1

    def layer_ids(self, depth: int) -> np.ndarray:
        """Ranks at distance exactly ``depth``, in discovery order."""
        starts = self.layer_starts
        if not 0 <= depth < len(starts) - 1:
            raise IndexError(f"no layer {depth} (depth {len(starts) - 2})")
        return self.order[starts[depth]:starts[depth + 1]]

    @property
    def reverse_distances(self) -> np.ndarray:
        """Distance *to* the identity from every rank (reverse BFS).

        For inverse-closed generator sets this equals :attr:`distances`;
        for directed families (rotator nuclei) it is a separate kernel
        run over :attr:`inverse_moves`.
        """
        if self._reverse_dist is None:
            if self.graph.is_undirectable():
                self._reverse_dist = self.distances
            else:
                self._reverse_dist = layered_bfs(self.inverse_moves, 0)
        return self._reverse_dist

    @property
    def inverse_moves(self) -> np.ndarray:
        """``(degree, k!)`` inverse move tables (cached): each move
        table is a permutation of the ID space, so its inverse is one
        ``argsort``.  ``inverse_moves[g][moves[g][r]] = r``."""
        if self._inverse_moves is None:
            inverse = np.empty_like(self.moves)
            for gi in range(len(self.gen_names)):
                inverse[gi] = np.argsort(self.moves[gi]).astype(np.int32)
            self._inverse_moves = inverse
        return self._inverse_moves

    # -- whole-graph statistics ----------------------------------------

    def diameter(self) -> int:
        """Identity eccentricity (= diameter by vertex symmetry)."""
        return self.num_layers() - 1

    def distance_distribution(self) -> List[int]:
        dist = self.distances
        return np.bincount(dist[dist >= 0]).tolist()

    def average_distance(self) -> float:
        dist = self.distances.astype(np.int64)
        reached = dist >= 0
        total = int(reached.sum())
        return float(dist[reached].sum()) / (total - 1)

    def is_connected(self) -> bool:
        return bool((self.distances >= 0).all())

    def eccentricity(self) -> int:
        return int(self.distances.max())

    # -- point queries --------------------------------------------------

    def distance(self, source: Permutation, target: Permutation) -> int:
        """Directed distance via one relative-label rank lookup."""
        d = int(self.distances[(source.inverse() * target).rank()])
        if d < 0:
            raise ValueError(
                f"{target} not reachable from {source} in {self.graph.name}"
            )
        return d

    def path_gen_ids(self, node_id: int) -> List[int]:
        """Generator indices of the BFS-tree path identity -> ``node_id``."""
        if self.distances[node_id] < 0:
            raise ValueError(f"rank {node_id} unreachable")
        return tree_word(self.parent, self.parent_gen, 0, node_id)

    def spanning_tree(self) -> Dict[Permutation, tuple]:
        """The BFS tree in object form: ``node -> (parent, dimension)``.

        Byte-identical to the object-based
        :func:`repro.comm.spanning_trees.bfs_spanning_tree` (same
        discovery order, same tie-breaks); the root is absent.
        """
        tree: Dict[Permutation, tuple] = {}
        parent, parent_gen = self.parent, self.parent_gen
        for node_id in self.order[1:]:
            node_id = int(node_id)
            tree[self.node(node_id)] = (
                self.node(int(parent[node_id])),
                self.gen_names[int(parent_gen[node_id])],
            )
        return tree

    def parity_counts(self) -> Dict[int, int]:
        """Node counts by label parity (vectorised)."""
        parities = parity_array(self.labels)
        odd = int(parities.sum())
        return {0: self.num_nodes - odd, 1: odd}

    def __repr__(self) -> str:
        state = "bfs-cached" if self._dist is not None else "lazy"
        return (
            f"<CompiledGraph {self.graph.name}: {self.num_nodes} ids, "
            f"{len(self.gen_names)} moves, {state}>"
        )
