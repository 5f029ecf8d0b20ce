"""Constructive routing for the pure-rotator super Cayley families
(MR, RR, complete-RR).

These families have insertion-only nuclei, so the Theorem 1-3 star
emulation does not apply with *constant* dilation — which is exactly why
the paper proves no emulation theorems for them, and why MIS adds the
selection generators.  They are still routable with short words via one
observation: a selection is a power of the matching insertion,

    I_i^{-1} = (I_i)^{i-1}           (I_i cyclically shifts a prefix ring
                                      of length i),

so Theorem 2's identity ``T_j = I_{j-1}^{-1} . I_j`` becomes the
insertion-only word ``I_j . I_{j-1}^{j-2}`` of length ``j - 1 <= n``.
Wrapping it in box-bring words emulates every star link with dilation
``n + O(1)``, and expanding the optimal star route gives an
``O(n * d_star)``-hop unicast route — the scalable counterpart of BFS
for these directed families.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.permutations import Permutation
from ..core.super_cayley import SuperCayleyNetwork, split_star_dimension
from ..obs import get_tracer
from .sc_routing import record_route_metrics, simplify_word
from .star_routing import star_route

ROTATOR_FAMILIES = ("MR", "RR", "complete-RR")


def insertion_transposition_word(network: SuperCayleyNetwork, i: int) -> List[str]:
    """The insertion-only nucleus word for the star generator ``T_i``
    (``2 <= i <= n + 1``): ``I_i`` followed by ``i - 2`` copies of
    ``I_{i-1}`` (= the selection ``I_{i-1}^{-1}``)."""
    if not 2 <= i <= network.n + 1:
        raise ValueError(
            f"nucleus dimensions are 2..{network.n + 1}, got {i}"
        )
    if i == 2:
        return ["I2"]
    return [f"I{i}"] + [f"I{i - 1}"] * (i - 2)


def rotator_star_dimension_word(
    network: SuperCayleyNetwork, j: int
) -> List[str]:
    """Emulation word for star link ``T_j`` on MR/RR/complete-RR:
    ``B_{j1+1} . I_{j0+2} . I_{j0+1}^{j0} . B_{j1+1}^{-1}``.

    Length at most ``n + 2`` for the macro/complete families (single-link
    brings) and ``n + l`` for RR.
    """
    if network.family not in ROTATOR_FAMILIES:
        raise ValueError(
            f"serves {ROTATOR_FAMILIES}, not {network.family}"
        )
    if not 2 <= j <= network.k:
        raise ValueError(f"star dimensions are 2..{network.k}, got {j}")
    j0, j1 = split_star_dimension(j, network.n)
    nucleus = insertion_transposition_word(network, j0 + 2)
    if j1 == 0:
        return nucleus
    return (
        network.bring_box_word(j1 + 1)
        + nucleus
        + network.return_box_word(j1 + 1)
    )


def rotator_emulation_dilation(network: SuperCayleyNetwork) -> int:
    """Worst-case emulation word length over all star dimensions."""
    return max(
        len(rotator_star_dimension_word(network, j))
        for j in range(2, network.k + 1)
    )


def rotator_family_route(
    network: SuperCayleyNetwork,
    source: Permutation,
    target: Optional[Permutation] = None,
    simplify: bool = True,
) -> List[str]:
    """A valid unicast route on MR/RR/complete-RR via star emulation.

    Length is at most ``(n + O(1)) * d_star(source, target)``; validity
    is checked against BFS in the tests.
    """
    if network.family not in ROTATOR_FAMILIES:
        raise ValueError(
            f"rotator_family_route serves {ROTATOR_FAMILIES}, "
            f"not {network.family} (use sc_route there)"
        )
    target = target if target is not None else network.identity
    with get_tracer().span(
        "routing.rotator_family_route", network=network.name
    ) as sp:
        star_word = star_route(source, target)
        word: List[str] = []
        for move in star_word:
            word.extend(rotator_star_dimension_word(network, int(move[1:])))
        if simplify:
            word = simplify_word(network, word)
        sp.set(star_moves=len(star_word), hops=len(word))
    record_route_metrics(network.family, word)
    return word
