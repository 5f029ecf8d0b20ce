"""Meet-in-the-middle point distances without a node table.

A single-source BFS to depth ``d`` touches ``O(degree^d)`` states; two
balls meeting in the middle touch ``O(degree^{d/2})`` each — the only
practical way to sample pair distances at ``k = 11..12`` where even the
frontier profile is hours of work.  By vertex transitivity every pair
distance is an identity distance: ``d(s, t) = d(id, s⁻¹t)`` (left
translation is an automorphism, valid for directed families too), so
the forward ball grows from the identity along the generators and the
backward ball grows from the relative label along the *inverse*
generators (predecessor expansion).

Termination: after both sides have completed depths ``(F, B)``, every
path of length ``<= F + B`` has produced a meet (a shortest path's
position-``i`` node sits in forward layer ``i`` and backward layer
``L - i``; some split with ``i <= F`` and ``L - i <= B`` exists whenever
``L <= F + B``).  So once ``best <= F + B`` the best meet *is* the
distance.  Keys are exact for ``k <= 20``
(:func:`~repro.frontier.encoding.make_key_fn`), which covers every
target in the paper's range; beyond that a hash collision could
under-report a distance with probability ~``m² / 2⁶⁴``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.compiled import first_occurrence
from ..core.permutations import Permutation
from .encoding import (
    chunk_rows,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    in_sorted,
    inverse_generator_columns,
    make_key_fn,
)

#: hard stop for runaway searches on disconnected directed families.
DEFAULT_MAX_DEPTH = 512


class _Ball:
    """One side of the search: a growing BFS ball with per-layer keys."""

    def __init__(self, root: np.ndarray, columns, key_fn, chunk: int):
        self.columns = columns
        self.key_fn = key_fn
        self.chunk = chunk
        self.frontier: List[np.ndarray] = [root]
        root_keys = np.sort(key_fn(root))
        self.layer_keys: List[np.ndarray] = [root_keys]
        self.depth = 0
        self.size = 1
        self.exhausted = False

    def expand(self) -> Optional[np.ndarray]:
        """Grow one layer; returns its sorted keys (None if exhausted)."""
        new_chunks: List[np.ndarray] = []
        new_keys: List[np.ndarray] = []
        for block in self.frontier:
            for lo in range(0, block.shape[0], self.chunk):
                piece = block[lo:lo + self.chunk]
                cand = expand_states(piece, self.columns)
                keys = self.key_fn(cand)
                sel = first_occurrence(keys, np.flatnonzero(
                    ~in_any(keys, self.layer_keys + new_keys)
                ))
                if not sel.size:
                    continue
                new_chunks.append(np.ascontiguousarray(cand[sel]))
                new_keys.append(np.sort(keys[sel]))
        if not new_chunks:
            self.exhausted = True
            self.frontier = []
            return None
        merged = (
            new_keys[0] if len(new_keys) == 1
            else np.sort(np.concatenate(new_keys))
        )
        self.frontier = new_chunks
        self.layer_keys.append(merged)
        self.depth += 1
        self.size += int(merged.size)
        return merged


def identity_distance(
    graph,
    target: Permutation,
    memory_budget_bytes: int = 64 * 1024 * 1024,
    key_seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Distance from the identity to ``target`` by bidirectional BFS.

    Returns ``-1`` when ``target`` is unreachable (non-generating sets
    on directed families).  Memory: each side's batches are sized from
    half the budget; all per-layer key arrays are retained (8 bytes per
    visited state) for meet detection.
    """
    k = graph.k
    if target.k != k:
        raise ValueError(f"size mismatch: {target.k} vs {k}")
    if target.is_identity():
        return 0
    key_fn, _ = make_key_fn(k, key_seed)
    degree = max(1, graph.degree)
    chunk = chunk_rows(memory_budget_bytes // 2, k, degree)
    root_f = identity_state(k)
    root_b = np.asarray(
        target.symbols, dtype=root_f.dtype
    )[None, :]
    forward = _Ball(root_f, generator_columns(graph), key_fn, chunk)
    backward = _Ball(
        root_b, inverse_generator_columns(graph), key_fn, chunk
    )
    best = -1

    def note_meets(new_keys: np.ndarray, new_depth: int, other: _Ball,
                   best: int) -> int:
        for j, ref in enumerate(other.layer_keys):
            if in_sorted(new_keys, ref).any():
                total = new_depth + j
                if best < 0 or total < best:
                    best = total
        return best

    while best < 0 or best > forward.depth + backward.depth:
        side, other = (
            (forward, backward)
            if forward.size <= backward.size and not forward.exhausted
            else (backward, forward)
        )
        if side.exhausted:
            side, other = other, side
        if side.exhausted:
            break  # both balls complete: best (or -1) is final
        new_keys = side.expand()
        if new_keys is not None:
            best = note_meets(new_keys, side.depth, other, best)
        if forward.depth + backward.depth > max_depth:
            raise RuntimeError(
                f"bidirectional search exceeded max_depth={max_depth} "
                f"on {graph.name}"
            )
    return best


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
