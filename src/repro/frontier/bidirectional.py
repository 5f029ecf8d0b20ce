"""Meet-in-the-middle point distances without a node table.

A single-source BFS to depth ``d`` touches ``O(degree^d)`` states; two
balls meeting in the middle touch ``O(degree^{d/2})`` each — the only
practical way to sample pair distances at ``k = 11..12`` where even the
frontier profile is hours of work.  By vertex transitivity every pair
distance is an identity distance: ``d(s, t) = d(id, s⁻¹t)`` (left
translation is an automorphism, valid for directed families too), so
the forward ball grows from the identity along the generators and the
backward ball grows from the relative label along the *inverse*
generators (predecessor expansion).  Each ball runs the engine's batch
step on its own visited set (:class:`~repro.frontier.engine.FrontierBFS`
runs the same one).

Termination: the first meet is the distance.  Each ball grows whole
layers, and every new state is tested against the other ball's visited
set.  While the balls have completed depths ``(F, B)`` with no meet, the
distance exceeds ``F + B``: a shortest path of length ``L <= F + B`` has
a node at forward depth ``i <= F`` and backward depth ``L - i <= B``,
which would have met.  So when a state of forward layer ``F + 1`` lies
at backward depth ``j <= B``, ``F + 1 + B <= d <= F + 1 + j``, hence
``j = B`` and ``d = F + 1 + B`` (and likewise with the sides swapped).
This holds for directed families and when the other ball is exhausted.
The meet is always in the other ball's last layer, so on the undirected
sorted-key window (previous and current layer) the test still finds it.
Keys are exact for ``k <= 20``
(:func:`~repro.frontier.encoding.make_key_fn`), which covers every
target in the paper's range; beyond that a hash collision could
under-report a distance with probability ~``m² / 2⁶⁴``.
"""

from __future__ import annotations

import numpy as np

from ..core.permutations import Permutation
from .encoding import (
    STATE_DTYPE,
    chunk_rows,
    generator_columns,
    identity_state,
    in_any,
    inverse_generator_columns,
)
from .engine import _RamLayer, _SearchState

#: hard stop for runaway searches on disconnected directed families.
DEFAULT_MAX_DEPTH = 512


class _Ball:
    """One side of the search: a BFS ball on its own search state."""

    def __init__(self, graph, root: np.ndarray, columns, budget: int,
                 key_seed: int):
        self.state = _SearchState.open(
            graph.k, graph.is_undirectable(), budget, key_seed
        )
        self.state.seed(root)
        self.columns = columns
        self.depth = 0
        self.size = 1
        self.exhausted = False

    def grow(self, other: "_Ball", chunk: int) -> bool:
        """Build the next layer; True, with the layer unfinished, as
        soon as a batch reaches a state ``other`` has visited."""
        chunks = []
        for states in self.state.frontier.pieces(chunk):
            fresh, keys = self.state.expand(states, self.columns)
            if in_any(keys, other.state.guard()).any():
                return True
            chunks.append(fresh)
        self.state.frontier = _RamLayer(chunks)
        size = sum(len(fresh) for fresh in chunks)
        self.exhausted = not size
        if size:
            self.state.seal()
            self.depth += 1
            self.size += size
        return False


def identity_distance(
    graph,
    target: Permutation,
    memory_budget_bytes: int = 64 * 1024 * 1024,
    key_seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Distance from the identity to ``target`` by bidirectional BFS.

    Returns ``-1`` when ``target`` is unreachable (non-generating
    sets).  Memory: each ball gets half the budget, so by the engine's
    rule it keeps a ``k!``-bit map when ``k!/8 <= budget/4``, else sorted
    keys (8 bytes per state), and its current and next layers stay in
    RAM, ``k`` bytes per state.
    """
    k = graph.k
    if target.k != k:
        raise ValueError(f"size mismatch: {target.k} vs {k}")
    if target.is_identity():
        return 0
    half = memory_budget_bytes // 2
    chunk = chunk_rows(half, k, max(1, graph.degree))
    root_b = np.asarray([target.symbols], dtype=STATE_DTYPE)
    forward = _Ball(graph, identity_state(k), generator_columns(graph),
                    half, key_seed)
    backward = _Ball(graph, root_b, inverse_generator_columns(graph),
                     half, key_seed)
    while True:
        side, other = (
            (forward, backward)
            if forward.size <= backward.size and not forward.exhausted
            else (backward, forward)
        )
        if side.exhausted:
            side, other = other, side
        if side.exhausted:
            return -1  # both balls complete, and they never met
        met = side.grow(other, chunk)
        # an unfinished meeting layer counts as one more layer
        depth = forward.depth + backward.depth + int(met)
        if depth > max_depth:
            raise RuntimeError(
                f"bidirectional search exceeded max_depth={max_depth} "
                f"on {graph.name}"
            )
        if met:
            return depth


def pair_distance(
    graph,
    source: Permutation,
    target: Permutation,
    memory_budget_bytes: int = 64 * 1024 * 1024,
    key_seed: int = 0,
) -> int:
    """Directed distance ``source -> target`` via one left translation:
    ``d(s, t) = d(id, s⁻¹t)``."""
    return identity_distance(
        graph, source.inverse() * target,
        memory_budget_bytes=memory_budget_bytes, key_seed=key_seed,
    )
