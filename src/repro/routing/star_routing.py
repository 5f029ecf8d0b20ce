"""Optimal routing in the star graph (Akers-Krishnamurthy).

Routing from node ``u`` to node ``v`` in a Cayley graph reduces, by
vertex symmetry, to routing from ``v^{-1} u``... precisely: sorting the
relative permutation ``u^{-1} v`` — equivalently, solving the
ball-arrangement game where the outside ball may swap with any ball.

The classical greedy algorithm is optimal:

* if the symbol at position 1 is some ``s != 1``, send it home (``T_s``);
* otherwise pick any out-of-place position ``j`` and apply ``T_j`` to
  open its cycle.

The resulting distance has the closed form

    d(p) = m(p) + c(p) + [p(1) != 1] * (-2) + ...

more conveniently stated as (with ``m`` = number of symbols in
non-trivial cycles of ``p`` and ``c`` = number of non-trivial cycles):

    d(p) = m + c        if position 1 is a fixed point,
    d(p) = m + c - 2    otherwise.

Both the algorithm and the formula are verified against exhaustive BFS
in the tests.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.permutations import Permutation


def star_route_to_identity(node: Permutation) -> List[str]:
    """An optimal generator word sorting ``node`` to the identity.

    Returns star dimensions as names ``"T<j>"``; apply left to right.
    """
    word: List[str] = []
    current = list(node.symbols)
    k = len(current)
    # Precompute positions for O(k) total swaps.
    position = [0] * (k + 1)
    for idx, symbol in enumerate(current):
        position[symbol] = idx  # 0-based position of each symbol

    def apply_t(j: int) -> None:
        """Swap positions 1 and j (1-based j) in place."""
        a, b = current[0], current[j - 1]
        current[0], current[j - 1] = b, a
        position[a] = j - 1
        position[b] = 0
        word.append(f"T{j}")

    # Out-of-place scan pointer: symbols are fixed left to right, and a
    # placed symbol never moves again, so a monotone cursor suffices.
    cursor = 2
    while True:
        s = current[0]
        if s != 1:
            apply_t(s)  # send the front symbol home
            continue
        # Front holds 1: find the next broken position, if any.
        while cursor <= k and current[cursor - 1] == cursor:
            cursor += 1
        if cursor > k:
            return word
        apply_t(cursor)  # open the next cycle


def star_route_to_identity_randomized(
    node: Permutation, rng
) -> List[str]:
    """An optimal sorting word with randomized cycle-opening order.

    The greedy algorithm is forced while the front symbol is misplaced,
    but *which* broken cycle to open next (when the front holds 1) is a
    free choice; randomizing it spreads traffic across link classes,
    which smooths congestion in bulk workloads (see the TE ablation).
    The word length is unchanged — still optimal.
    """
    word: List[str] = []
    current = list(node.symbols)
    k = len(current)

    def apply_t(j: int) -> None:
        current[0], current[j - 1] = current[j - 1], current[0]
        word.append(f"T{j}")

    while True:
        s = current[0]
        if s != 1:
            apply_t(s)
            continue
        broken = [
            j for j in range(2, k + 1) if current[j - 1] != j
        ]
        if not broken:
            return word
        apply_t(rng.choice(broken))


def star_route(source: Permutation, target: Permutation) -> List[str]:
    """An optimal generator word from ``source`` to ``target``.

    By the Cayley right-action, walking word ``w`` from ``source`` lands
    on ``source * w``; the word we need sorts ``target^{-1} * source``...
    concretely: ``source * w = target`` iff ``w = source^{-1} * target``
    as a group element, and sorting ``(source^{-1} * target)^{-1}``
    yields exactly that word (sorting ``p`` produces a word whose product
    is ``p^{-1}``).
    """
    relative = source.inverse() * target
    return star_route_to_identity(relative.inverse())


def star_distance(node: Permutation) -> int:
    """Closed-form distance from ``node`` to the identity in the star graph."""
    cycles = node.cycles()
    m = sum(len(c) for c in cycles)
    c = len(cycles)
    if m == 0:
        return 0
    if node(1) == 1:
        return m + c
    return m + c - 2


def star_distance_array(labels: np.ndarray) -> np.ndarray:
    """:func:`star_distance` row-wise over an ``(m, k)`` label matrix.

    The closed form's ``m + c`` equals ``k + cycles - 2 * fixed`` when
    ``cycles`` counts fixed points too.  The rows form one permutation
    of ``rows * k`` points; pointer doubling (``ceil(log2 k)`` rounds)
    gives each point the smallest point of its cycle, so each cycle is
    counted once, at its minimum.
    """
    p = np.asarray(labels, dtype=np.int64) - 1
    rows, k = p.shape
    points = np.arange(rows * k)
    step = (p + k * np.arange(rows)[:, None]).ravel()
    low = points
    for _ in range((k - 1).bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    cycles = (low == points).reshape(rows, k).sum(axis=1)
    fixed = (p == np.arange(k)).sum(axis=1)
    return k + cycles - 2 * fixed - 2 * (p[:, 0] != 0)


def star_distance_between(u: Permutation, v: Permutation) -> int:
    """Closed-form star-graph distance between two nodes."""
    return star_distance(u.inverse() * v)


def star_eccentricity(k: int) -> int:
    """The star graph diameter ``floor(3(k-1)/2)``."""
    return 3 * (k - 1) // 2
