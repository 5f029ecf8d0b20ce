"""Encoded states and hashable keys for table-free graph exploration.

The frontier engine never materialises the ``k!`` node table; a set of
nodes is an ``(m, k)`` **state matrix** — one uint8 one-line label per
row, the exact byte layout of
:attr:`repro.core.compiled.CompiledGraph.labels` but holding only the
states currently in play.  Everything the engine does reduces to three
primitives defined here:

* **move application** — generator ``g`` sends label row ``u`` to
  ``u[g_cols]`` (``(u * g)(i) = u(g(i))``, the same column gather the
  compiled move tables are built from), so "expand a frontier through
  every generator" is one fancy-index per generator;
* **keys** — each state row folds into one uint64.  For ``k <= 20``
  the key is the Lehmer rank (``20! < 2^63``), so equal keys *are*
  equal states and every key is a dense index ``0 .. k!-1``; beyond
  that it is a seeded multiply-fold hash with a documented
  (astronomically small) collision probability;
* **membership** — :func:`in_any` tests a key batch against the
  visited set: a :class:`VisitedMap` (one bit per rank, for exact keys
  whose ``k!`` bits fit the budget) and/or sorted key arrays, by
  vectorised ``searchsorted`` (:func:`in_sorted`).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..core.compiled import rank_array

#: largest ``k`` whose Lehmer rank fits a uint64 (``20! < 2^63``).
MAX_EXACT_KEY_K = 20

#: dtype of state matrices (symbols ``1..k``, so ``k <= 255``).
STATE_DTYPE = np.uint8


def identity_state(k: int) -> np.ndarray:
    """The ``(1, k)`` state matrix holding only the identity label."""
    return np.arange(1, k + 1, dtype=STATE_DTYPE)[None, :]


def generator_columns(graph) -> List[np.ndarray]:
    """Per-generator gather columns: applying generator ``g`` to a
    state matrix ``s`` is ``s[:, cols[g]]``."""
    return [
        np.asarray(g.perm.symbols, dtype=np.int64) - 1
        for g in graph.generators
    ]


def inverse_generator_columns(graph) -> List[np.ndarray]:
    """Gather columns of the *inverse* generators — expanding with
    these walks edges backwards (predecessors), which is what the
    backward half of a bidirectional search and reverse BFS need."""
    return [
        np.asarray(g.perm.inverse().symbols, dtype=np.int64) - 1
        for g in graph.generators
    ]


def expand_states(
    states: np.ndarray, columns: Sequence[np.ndarray]
) -> np.ndarray:
    """All neighbours of ``states`` in **row-major, generator-minor**
    order: result row ``r`` is generator ``r % degree`` applied to
    state row ``r // degree`` — the exact candidate order of the
    compiled whole-frontier BFS, so first-occurrence dedup breaks ties
    identically."""
    m, k = states.shape
    degree = len(columns)
    out = np.empty((m, degree, k), dtype=states.dtype)
    for gi, cols in enumerate(columns):
        out[:, gi, :] = states[:, cols]
    return out.reshape(m * degree, k)


def make_key_fn(k: int, seed: int = 0) -> Tuple[Callable, bool]:
    """The state->uint64 key function for ``k`` symbols.

    Returns ``(fn, exact)``: ``fn`` maps an ``(m, k)`` state matrix to
    an ``(m,)`` uint64 key array; ``exact`` is True when the key is the
    Lehmer rank (``k <= 20``) — injective, and a dense index into a
    :class:`VisitedMap`.  For larger ``k`` the keys are a seeded
    multiply-fold hash — dedup may (with probability ~``m^2 / 2^64``)
    merge two distinct states, which callers surface via
    :class:`~repro.frontier.engine.FrontierBFS`'s ``exact_keys`` flag.
    """
    if k <= MAX_EXACT_KEY_K:
        def _lehmer(states: np.ndarray) -> np.ndarray:
            return rank_array(states).view(np.uint64)

        return _lehmer, True
    rng = np.random.default_rng(seed)
    mult = rng.integers(1, 2 ** 63, size=k, dtype=np.uint64) | np.uint64(1)

    def _hash(states: np.ndarray) -> np.ndarray:
        acc = (states.astype(np.uint64) * mult).sum(
            axis=1, dtype=np.uint64
        )
        # fmix64 finalizer: spread the low-entropy sum over all bits.
        acc ^= acc >> np.uint64(33)
        acc *= np.uint64(0xFF51AFD7ED558CCD)
        acc ^= acc >> np.uint64(33)
        return acc

    return _hash, False


def in_sorted(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a *sorted* key array."""
    if sorted_ref.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_ref, values)
    mask = idx < sorted_ref.size
    mask[mask] = sorted_ref[idx[mask]] == values[mask]
    return mask


class VisitedMap:
    """A packed bit per exact key ``0 .. size-1``: the visited set of a
    search whose keys are Lehmer ranks, ``size / 8`` bytes however many
    states it holds."""

    _MASKS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))

    def __init__(self, size: int):
        self.bits = np.zeros((size + 7) // 8, dtype=np.uint8)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        idx = keys.view(np.int64)
        return (
            (self.bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
        ).view(bool)

    def add(self, keys: np.ndarray) -> None:
        idx = keys.view(np.int64)
        np.bitwise_or.at(self.bits, idx >> 3, self._MASKS[idx & 7])


def in_any(values: np.ndarray, refs: Sequence) -> np.ndarray:
    """Membership in the union of several key sets, each a
    :class:`VisitedMap` or a sorted key array."""
    seen = np.zeros(values.shape, dtype=bool)
    for ref in refs:
        if isinstance(ref, VisitedMap):
            seen |= ref.contains(values)
        elif ref.size:
            todo = ~seen
            if not todo.any():
                break
            seen[todo] = in_sorted(values[todo], ref)
    return seen


def chunk_rows(memory_budget_bytes: int, k: int, degree: int) -> int:
    """Frontier rows per expansion batch under a byte budget.

    One batch materialises, per frontier row, ``degree`` candidate
    state rows (``k`` bytes each), their uint64 keys and the
    stable-sort scratch ``np.unique`` needs — roughly
    ``degree * (k + 24)`` bytes with another 2x headroom for the
    transient views.  Half the budget goes to this workspace (the other
    half covers the visited set and the accumulating next layer), with
    a floor of 32 rows so a pathological budget still makes progress.
    """
    degree = max(1, degree)
    per_row = degree * (k + 24) * 2
    return max(32, int(memory_budget_bytes) // (2 * per_row))
