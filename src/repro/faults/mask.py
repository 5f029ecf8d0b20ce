"""Vectorized fault state over the compiled graph core.

A :class:`FaultMask` holds two boolean arrays against a
:class:`~repro.core.compiled.CompiledGraph`:

* ``node_ok[r]`` — rank ``r`` is alive;
* ``link_ok[g, r]`` — the directed link ``r -> moves[g][r]`` is alive.

The masked searches run the shared layer step of
:mod:`repro.core.compiled` with the masks as its ``keep`` filter, one
rule per direction (:meth:`FaultMask.forward_keep`,
:meth:`FaultMask.reverse_keep`).  :meth:`FaultMask.bfs` gives the
distances from a source and :meth:`FaultMask.distances_to` the
distances to a target; given a source as well, the latter meets in the
middle (:func:`~repro.core.compiled.meet_distances`) and labels only
the ranks on shortest live routes.  Every route — :meth:`route_ids`,
and the simulator's re-routes — is the greedy descent on such a table
(:meth:`route_ids_via_table`): the lexicographically least shortest
live word, which is exactly the word of the object-path FIFO search in
:func:`repro.routing.fault_tolerant.fault_tolerant_route` (asserted
differentially in ``tests/test_faults.py``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from ..core.compiled import descend, layered_bfs, meet_distances
from ..core.permutations import Permutation
from ..obs import traced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cayley import CayleyGraph
    from ..routing.fault_tolerant import FaultSet


class FaultMask:
    """Node/link fault masks plus the masked searches over them."""

    def __init__(self, graph: "CayleyGraph"):
        self.graph = graph
        self.compiled = graph.compiled()
        n = self.compiled.num_nodes
        self.num_gens = len(self.compiled.gen_names)
        self.node_ok = np.ones(n, dtype=bool)
        self.link_ok = np.ones((self.num_gens, n), dtype=bool)
        self._gens = np.arange(self.num_gens)

    # -- construction --------------------------------------------------

    @classmethod
    def from_fault_set(
        cls, graph: "CayleyGraph", faults: "FaultSet"
    ) -> "FaultMask":
        """Compile an object-form :class:`FaultSet` into masks."""
        mask = cls(graph)
        for node in faults.nodes:
            mask.fail_node(graph.node_id(node))
        for tail, dim in faults.links:
            mask.fail_link(graph.node_id(tail), dim)
        return mask

    def to_fault_set(self) -> "FaultSet":
        """The object-form view of the current masks (for the object
        oracle in differential tests)."""
        from ..routing.fault_tolerant import FaultSet

        node = self.compiled.node
        dead_nodes = [node(int(r)) for r in np.nonzero(~self.node_ok)[0]]
        dead_links = [
            (node(int(r)), self.compiled.gen_names[int(g)])
            for g, r in zip(*np.nonzero(~self.link_ok))
        ]
        return FaultSet.of(nodes=dead_nodes, links=dead_links)

    @classmethod
    def random(
        cls,
        graph: "CayleyGraph",
        node_rate: float = 0.0,
        link_rate: float = 0.0,
        seed: int = 0,
        protect: Iterable[Permutation] = (),
    ) -> "FaultMask":
        """Independently fail each node/link with the given rates
        (deterministic for a fixed seed); ``protect`` keeps the listed
        nodes alive (e.g. traffic endpoints)."""
        mask = cls(graph)
        rng = np.random.default_rng(seed)
        n = mask.compiled.num_nodes
        if node_rate > 0:
            mask.node_ok = rng.random(n) >= node_rate
        if link_rate > 0:
            mask.link_ok = rng.random((mask.num_gens, n)) >= link_rate
        for node in protect:
            mask.node_ok[graph.node_id(node)] = True
        return mask

    # -- mutation ------------------------------------------------------

    def _gen_idx(self, dimension) -> int:
        if isinstance(dimension, str):
            return self.compiled.gen_index(dimension)
        return int(dimension)

    def fail_node(self, node_id: int) -> None:
        self.node_ok[node_id] = False

    def repair_node(self, node_id: int) -> None:
        self.node_ok[node_id] = True

    def fail_link(self, node_id: int, dimension) -> None:
        self.link_ok[self._gen_idx(dimension), node_id] = False

    def repair_link(self, node_id: int, dimension) -> None:
        self.link_ok[self._gen_idx(dimension), node_id] = True

    def apply_events(self, node_ids: np.ndarray, gens: np.ndarray,
                     fail: np.ndarray) -> None:
        """Fail (``fail`` True) or repair a batch of elements in one
        write per mask: row ``i`` is node ``node_ids[i]`` when
        ``gens[i]`` is -1, else its link along generator ``gens[i]``.
        Where rows name the same element the last one wins, as if the
        rows were applied one by one."""
        n = self.compiled.num_nodes
        node_ids = np.asarray(node_ids, dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64)
        alive = ~np.asarray(fail, dtype=bool)
        nodes = gens < 0
        ids, ok = _last_writes(node_ids[nodes], alive[nodes])
        self.node_ok[ids] = ok
        links, ok = _last_writes(
            gens[~nodes] * n + node_ids[~nodes], alive[~nodes]
        )
        self.link_ok[links // n, links % n] = ok

    # -- inspection ----------------------------------------------------

    def blocks_node(self, node_id: int) -> bool:
        return not bool(self.node_ok[node_id])

    def blocks_link(self, node_id: int, dimension) -> bool:
        return not bool(self.link_ok[self._gen_idx(dimension), node_id])

    def num_failed_nodes(self) -> int:
        return int((~self.node_ok).sum())

    def num_failed_links(self) -> int:
        return int((~self.link_ok).sum())

    def __len__(self) -> int:
        return self.num_failed_nodes() + self.num_failed_links()

    # -- masked searches -----------------------------------------------

    def forward_keep(self, frontier: np.ndarray,
                     cand: np.ndarray) -> np.ndarray:
        """The forward keep rule: the link from the frontier rank is
        live, and so is the candidate it leads to."""
        return self.link_ok[:, frontier].T & self.node_ok[cand]

    def reverse_keep(self, frontier: np.ndarray,
                     cand: np.ndarray) -> np.ndarray:
        """The reverse keep rule: stepping back from ``v`` along ``g``
        lands on ``u = inverse_moves[g][v]`` and crosses the forward
        link ``(u, g)``, so the link is tested at the *candidate*, which
        must be live too."""
        return self.link_ok[self._gens, cand] & self.node_ok[cand]

    @traced("faults.masked_bfs")
    def bfs(self, source_id: int) -> np.ndarray:
        """Distance from ``source_id`` to every rank over the live
        sub-network (``-1`` where unreachable, and everywhere when the
        source is dead)."""
        if not self.node_ok[source_id]:
            return np.full(self.compiled.num_nodes, -1, dtype=np.int16)
        return layered_bfs(
            self.compiled.moves, source_id, keep=self.forward_keep
        )

    def reachable_from(self, source_id: int) -> np.ndarray:
        """Boolean array: ranks reachable from ``source_id`` under the
        mask (the source itself included when alive)."""
        return self.bfs(source_id) >= 0

    @traced("faults.masked_reverse_bfs")
    def distances_to(
        self, target_id: int, source_id: Optional[int] = None
    ) -> np.ndarray:
        """Distances *to* ``target_id`` over the live sub-network, as
        an ``int16`` table with ``-1`` where nothing is labelled.

        Without ``source_id`` the table is complete: one reverse BFS
        labels every rank that can reach the target.  With
        ``source_id`` the search meets in the middle
        (:func:`~repro.core.compiled.meet_distances`) and labels at
        least every rank of every shortest live ``source -> target``
        route.  Every label is the exact distance, and every live
        successor one step closer than a labelled rank is labelled, so
        :meth:`route_ids_via_table` from the source takes the complete
        table's word; the source reads ``-1`` when it cannot reach the
        target.  A dead source or target leaves nothing labelled except
        a live target.
        """
        n = self.compiled.num_nodes
        if not self.node_ok[target_id]:
            return np.full(n, -1, dtype=np.int16)
        if source_id is None:
            return layered_bfs(
                self.compiled.inverse_moves, target_id,
                keep=self.reverse_keep,
            )
        if not self.node_ok[source_id]:
            dist = np.full(n, -1, dtype=np.int16)
            dist[target_id] = 0
            return dist
        return meet_distances(
            self.compiled.moves, self.compiled.inverse_moves, source_id,
            target_id, forward_keep=self.forward_keep,
            reverse_keep=self.reverse_keep,
        )

    def route_ids(
        self, source_id: int, target_id: int
    ) -> Optional[List[int]]:
        """Generator indices of a shortest fault-free route, or ``None``
        when no such route exists (endpoints must be alive)."""
        if not (self.node_ok[source_id] and self.node_ok[target_id]):
            return None
        if source_id == target_id:
            return []
        return self.route_ids_via_table(
            source_id, target_id, self.distances_to(target_id, source_id)
        )

    def route(
        self, source: Permutation, target: Permutation
    ) -> Optional[List[str]]:
        """Dimension names of a shortest fault-free route (or ``None``)."""
        word = self.route_ids(
            self.graph.node_id(source), self.graph.node_id(target)
        )
        if word is None:
            return None
        return [self.compiled.gen_names[g] for g in word]

    def route_ids_via_table(
        self, source_id: int, target_id: int, dist_to: np.ndarray
    ) -> Optional[List[int]]:
        """Greedy descent on a :meth:`distances_to` table over live
        links only: at each rank, the first generator one step closer."""
        return descend(
            self.compiled.moves, dist_to, source_id, target_id,
            node_ok=self.node_ok, link_ok=self.link_ok,
        )

    # -- whole-network statistics --------------------------------------

    def survives(
        self, samples: int = 20, seed: int = 0
    ) -> bool:
        """Spot-check that random live pairs remain routable (the
        compiled counterpart of
        :func:`repro.routing.fault_tolerant.survives_faults`, sampling
        with the same rng stream)."""
        rng = random.Random(seed)
        k = self.compiled.k
        for _ in range(samples):
            source = Permutation.random(k, rng)
            target = Permutation.random(k, rng)
            source_id = self.graph.node_id(source)
            target_id = self.graph.node_id(target)
            if not (self.node_ok[source_id] and self.node_ok[target_id]):
                continue
            if self.route_ids(source_id, target_id) is None:
                return False
        return True

    def largest_live_component(self) -> int:
        """Size of the largest mutually-reachable live set, probing
        from live ranks until every live rank is accounted for.

        On undirected families this is the usual component size; on
        directed families it counts forward-reachable sets per probe
        (an upper bound on strongly-connected component size).
        """
        live = np.nonzero(self.node_ok)[0]
        best = 0
        unseen = np.ones(self.compiled.num_nodes, dtype=bool)
        unseen[~self.node_ok] = False
        for root in live:
            if not unseen[root]:
                continue
            reach = self.reachable_from(int(root))
            unseen[reach] = False
            best = max(best, int(reach.sum()))
        return best

    def disjoint_route_words(
        self, source: Permutation, target: Permutation
    ) -> List[List[str]]:
        """Greedy internally node-disjoint routes on the masked arrays
        (the compiled counterpart of
        :func:`repro.routing.fault_tolerant.disjoint_paths`).

        Matches the object path's extraction order: each accepted route
        blocks its interior nodes, its first link, and its last link,
        then re-searches.  The mask is restored before returning.
        """
        source_id = self.graph.node_id(source)
        target_id = self.graph.node_id(target)
        if source_id == target_id:
            return []
        saved_nodes = self.node_ok.copy()
        saved_links = self.link_ok.copy()
        moves = self.compiled.moves
        words: List[List[str]] = []
        try:
            while True:
                word = self.route_ids(source_id, target_id)
                if word is None:
                    return [
                        [self.compiled.gen_names[g] for g in w]
                        for w in words
                    ]
                words.append(word)
                current = source_id
                interior: List[int] = []
                for g in word[:-1]:
                    current = int(moves[g][current])
                    interior.append(current)
                self.node_ok[interior] = False
                self.link_ok[word[0], source_id] = False
                last_interior = interior[-1] if interior else source_id
                self.link_ok[word[-1], last_interior] = False
        finally:
            self.node_ok = saved_nodes
            self.link_ok = saved_links

    def __repr__(self) -> str:
        return (
            f"<FaultMask {self.graph.name}: {self.num_failed_nodes()} "
            f"dead nodes, {self.num_failed_links()} dead links>"
        )


def _last_writes(keys: np.ndarray, values: np.ndarray):
    """The distinct ``keys``, each with the value of its last row
    (fancy assignment with repeated indices fixes no order)."""
    distinct, first = np.unique(keys[::-1], return_index=True)
    return distinct, values[::-1][first]


def endpoints_alive(
    mask: FaultMask, pairs: Iterable[Tuple[int, int]]
) -> np.ndarray:
    """Boolean per pair: both endpoints live under the mask."""
    pairs = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    return mask.node_ok[pairs[:, 0]] & mask.node_ok[pairs[:, 1]]
