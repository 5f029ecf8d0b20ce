"""Lower bounds and asymptotic formulas (Section 4, Corollaries 1-3).

The paper's optimality claims compare measured times against:

* the Moore-style universal diameter lower bound ``DL(d, N)``;
* the degree-ratio emulation bound ``T(d1, d2) = ceil(d2/d1)``;
* the MNB receive bound ``ceil((N-1)/d)``;
* the TE counting bound ``(N-1) * avg_dist / d``;

and express network parameters through the asymptotic forms
``degree = Theta(sqrt(log N / log log N))`` (balanced super Cayley
graphs with ``l = Theta(n)``) and ``Theta(log N / log log N)`` (star /
IS networks).  The helpers here make those comparisons concrete for the
benchmark sweeps.  :func:`star_layer_counts`,
:func:`bubble_sort_layer_counts` and :func:`transposition_layer_counts`
are exact closed forms: the distance profiles of the three
transposition-generated Cayley graphs, which frontier profiles past the
compiled engine's reach are checked against.
"""

from __future__ import annotations

import math
from collections import Counter

from ..core.permutations import factorial


def moore_diameter_lower_bound(degree: int, num_nodes: int) -> int:
    """``DL(d, N)``: the smallest ``D`` with
    ``1 + d + d^2 + ... + d^D >= N`` — no ``N``-node graph of max degree
    ``d`` has smaller diameter."""
    if degree < 1 or num_nodes < 1:
        raise ValueError("degree and num_nodes must be positive")
    if num_nodes == 1:
        return 0
    if degree == 1:
        return 1 if num_nodes <= 2 else num_nodes  # degenerate
    total = 1
    power = 1
    depth = 0
    while total < num_nodes:
        depth += 1
        power *= degree
        total += power
    return depth


def mean_distance_lower_bound(degree: int, num_nodes: int) -> float:
    """A Moore-type lower bound on the mean internodal distance: at most
    ``d^r`` nodes sit at distance ``r``, so the closest possible
    distance profile packs nodes greedily by distance."""
    remaining = num_nodes - 1
    total = 0.0
    distance = 1
    capacity = degree
    while remaining > 0:
        here = min(capacity, remaining)
        total += here * distance
        remaining -= here
        distance += 1
        capacity *= degree
    return total / (num_nodes - 1)


def degree_of_balanced_sc(num_symbols: int) -> int:
    """Degree of the balanced MS(l, n) with ``l = n`` (``k = n^2 + 1``):
    ``2n - 1 = Theta(sqrt(log N / log log N))``."""
    n = int(round(math.sqrt(num_symbols - 1)))
    if n * n + 1 != num_symbols:
        raise ValueError(f"{num_symbols} is not n^2 + 1 for integer n")
    return 2 * n - 1


def log_ratio(num_nodes: int) -> float:
    """``log N / log log N`` — the star-graph degree scale."""
    if num_nodes < 3:
        raise ValueError("need at least 3 nodes")
    return math.log(num_nodes) / math.log(math.log(num_nodes))


def star_degree_asymptotic(k: int) -> float:
    """Check value: the k-star's degree ``k - 1`` equals
    ``Theta(log N / log log N)`` with ``N = k!`` — the ratio of the two
    sides, which should stay bounded as ``k`` grows."""
    return (k - 1) / log_ratio(factorial(k))


def balanced_sc_degree_asymptotic(n: int) -> float:
    """Check value for ``MS(n, n)``: degree ``2n - 1`` against
    ``sqrt(log N / log log N)``, ``N = (n^2 + 1)!``."""
    num_nodes = factorial(n * n + 1)
    return (2 * n - 1) / math.sqrt(log_ratio(num_nodes))


def moore_layer_caps(degree: int, num_layers: int) -> list:
    """Per-depth width ceilings ``[1, d, d², ...]`` — no BFS layer of a
    degree-``d`` graph can be wider than ``d`` times the previous one,
    so ``d^r`` caps depth ``r``.  The frontier engine's layer profiles
    are checked against these (a violation means dedup lost states)."""
    if degree < 1 or num_layers < 1:
        raise ValueError("degree and num_layers must be positive")
    caps = [1]
    for _ in range(num_layers - 1):
        caps.append(caps[-1] * degree)
    return caps


def profile_within_moore(layer_sizes, degree: int) -> bool:
    """True iff a BFS layer profile respects the Moore layer caps:
    ``width_0 = 1`` and ``width_{r+1} <= degree * width_r``."""
    if not layer_sizes or layer_sizes[0] != 1:
        return False
    for prev, cur in zip(layer_sizes, layer_sizes[1:]):
        if cur > degree * prev:
            return False
    return True


def _partitions(n: int, largest: int):
    """The integer partitions of ``n`` into parts ``<= largest``."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def star_layer_counts(k: int) -> list:
    """Layer sizes of the k-star from the identity, without a BFS.

    A node's star distance depends only on its cycle type and on
    whether it moves symbol 1: with ``m`` symbols on ``c`` non-trivial
    cycles it is ``m + c`` when symbol 1 is fixed and ``m + c - 2``
    when it is moved (Akers–Krishnamurthy).  A cycle type with ``a_i``
    cycles of length ``i`` holds ``k! / prod(i^a_i * a_i!)``
    permutations, a fraction ``a_1 / k`` of which fix symbol 1, so a
    sum over the integer partitions of ``k`` gives every layer.  MS(l,1)
    is isomorphic to star(l + 1), so its profile is ``star_layer_counts
    (l + 1)`` too.
    """
    if k < 1:
        raise ValueError(f"star graph needs k >= 1, got {k}")
    counts: Counter = Counter()
    for parts in _partitions(k, k):
        lengths = Counter(parts)
        size = factorial(k)
        for length, count in lengths.items():
            size //= length ** count * factorial(count)
        fixed = lengths[1]
        distance = (k - fixed) + (len(parts) - fixed)  # m + c
        fixing = size * fixed // k
        for d, here in ((distance, fixing), (distance - 2, size - fixing)):
            if here:
                counts[d] += here
    return [counts[d] for d in range(max(counts) + 1)]


def bubble_sort_layer_counts(k: int) -> list:
    """Layer sizes of the k-dimensional bubble-sort graph from the
    identity, without a BFS.

    Adjacent transpositions remove at most one inversion per step and
    bubble sort removes one every step, so a node's distance is its
    number of inversions and layer ``d`` holds the permutations with
    ``d`` inversions: the Mahonian numbers, the coefficients of
    ``prod_{i=1..k} (1 + x + ... + x^(i-1))``.
    """
    if k < 1:
        raise ValueError(f"bubble-sort graph needs k >= 1, got {k}")
    counts = [1]
    for i in range(2, k + 1):  # times 1 + x + ... + x^(i-1)
        spread = [0] * (len(counts) + i - 1)
        for d, here in enumerate(counts):
            for j in range(i):
                spread[d + j] += here
        counts = spread
    return counts


def transposition_layer_counts(k: int) -> list:
    """Layer sizes of the transposition network k-TN from the identity,
    without a BFS.

    A transposition splits or merges one cycle, so a permutation with
    ``c`` cycles (fixed points included) is ``k - c`` steps from the
    identity, and layer ``d`` holds ``c(k, k - d)`` nodes: an unsigned
    Stirling number of the first kind, from the recurrence
    ``c(n, j) = c(n-1, j-1) + (n-1) c(n-1, j)``.
    """
    if k < 1:
        raise ValueError(f"transposition network needs k >= 1, got {k}")
    stirling = [1]  # c(0, j) for j = 0..0
    for n in range(1, k + 1):
        stirling = [
            (stirling[j - 1] if j else 0)
            + (n - 1) * (stirling[j] if j < n else 0)
            for j in range(n + 1)
        ]
    return [stirling[k - d] for d in range(k)]


def mnb_time_bound_allport(num_nodes: int, degree: int) -> int:
    """Corollary 2's receive bound ``ceil((N-1)/d)``."""
    return -(-(num_nodes - 1) // degree)


def te_time_bound_allport(num_nodes: int, degree: int) -> float:
    """Corollary 3's counting bound with the Moore mean-distance bound
    substituted: ``(N-1) * mean_dist_LB / d``."""
    return (num_nodes - 1) * mean_distance_lower_bound(degree, num_nodes) / degree


def emulation_optimality_ratio(
    measured_slowdown: int, host_degree: int, guest_degree: int
) -> float:
    """``measured / T(d1, d2)`` — Corollary 1's optimality figure; the
    emulation is asymptotically optimal when this stays O(1) over a
    family sweep."""
    lower = -(-guest_degree // host_degree)
    return measured_slowdown / lower
