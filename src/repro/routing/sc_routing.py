"""Routing in super Cayley networks via star-graph emulation.

The paper routes super Cayley graphs by playing the ball-arrangement
game: solve the corresponding (ln+1)-star routing problem optimally
(:mod:`repro.routing.star_routing`), then expand each star move ``T_j``
into the network's constant-length word from Theorems 1-3
(``B_{j1+1} T_{j0+2} B_{j1+1}^{-1}`` for MS, and so on).

The raw expansion wastes hops when consecutive star moves touch the same
box — the trailing ``B^{-1}`` of one expansion cancels the leading ``B``
of the next.  :func:`simplify_word` performs that peephole cancellation,
which is exactly the optimisation implicit in the paper's schedules.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.permutations import Permutation
from ..core.super_cayley import SuperCayleyNetwork
from ..obs import get_registry, get_tracer
from .star_routing import star_route


def expand_star_word(
    network: SuperCayleyNetwork, star_word: List[str]
) -> List[str]:
    """Expand star dimensions ``["T5", "T2", ...]`` into network links."""
    out: List[str] = []
    for move in star_word:
        if not move.startswith("T"):
            raise ValueError(f"not a star dimension: {move!r}")
        out.extend(network.star_dimension_word(int(move[1:])))
    return out


def simplify_word(network: SuperCayleyNetwork, word: List[str]) -> List[str]:
    """Cancel adjacent mutually-inverse links (peephole, to fixpoint).

    Sound for any Cayley graph: deleting ``g g^{-1}`` leaves the walk's
    endpoints unchanged (intermediate nodes differ, so use the result for
    *unicast routing*, not for replaying a schedule).
    """
    inverse_of = {}
    for gen in network.generators:
        inv_perm = gen.perm.inverse()
        partner = network.generators.find_by_perm(inv_perm)
        if partner is not None:
            inverse_of[gen.name] = partner.name
    stack: List[str] = []
    for dim in word:
        if stack and inverse_of.get(stack[-1]) == dim:
            stack.pop()
        else:
            stack.append(dim)
    return stack


def record_route_metrics(family: str, word: List[str]) -> None:
    """Emit routing metrics (route count, hop histogram, generator-usage
    histogram) for one computed route.  No-op when metrics are off."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter("routing.routes").inc(family=family)
    registry.histogram("routing.hops").observe(len(word), family=family)
    usage = registry.counter("routing.generator_usage")
    for dim in word:
        usage.inc(family=family, generator=dim)


def walk_route(
    network: SuperCayleyNetwork, source: Permutation, word: List[str]
):
    """Yield ``(dim, node)`` along ``word`` starting from ``source`` —
    the hop sequence behind ``repro route --trace``."""
    node = source
    for dim in word:
        node = node * network.generators[dim].perm
        yield dim, node


def sc_route(
    network: SuperCayleyNetwork,
    source: Permutation,
    target: Permutation,
    simplify: bool = True,
) -> List[str]:
    """A route from ``source`` to ``target`` via star emulation.

    Length is at most ``dilation * d_star(source, target)``, i.e. within
    a constant factor of optimal (Theorems 1-3); with ``simplify`` the
    common same-box cancellations are removed.  Works for every family
    with a constant-dilation star emulation (MS, complete-RS, IS, MIS,
    complete-RIS); raises ``NotImplementedError`` for the pure-rotator
    nuclei.
    """
    with get_tracer().span("routing.sc_route", network=network.name) as sp:
        star_word = star_route(source, target)
        word = expand_star_word(network, star_word)
        if simplify:
            word = simplify_word(network, word)
        sp.set(star_moves=len(star_word), hops=len(word))
    record_route_metrics(network.family, word)
    return word


def route_length_bound(network: SuperCayleyNetwork, star_distance: int) -> int:
    """Upper bound on emulated route length for a given star distance."""
    return network.star_emulation_dilation() * star_distance


def greedy_bag_route(
    network: SuperCayleyNetwork, source: Permutation, target: Optional[Permutation] = None
) -> List[str]:
    """Alias with ball-arrangement-game vocabulary: the move sequence
    solving the game from configuration ``source`` (to ``target``,
    default the solved state)."""
    target = target if target is not None else network.identity
    return sc_route(network, source, target)
