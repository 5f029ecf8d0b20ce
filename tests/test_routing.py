"""Tests for routing: star-graph optimal routing, super Cayley emulated
routing, and the bidirectional BFS of exact distances at scale."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cayley import CayleyGraph
from repro.core.generators import GeneratorSet, insertion, transposition
from repro.core.permutations import Permutation, factorial
from repro.frontier import identity_distance, pair_distance
from repro.networks import (
    CompleteRotationStar,
    InsertionSelection,
    MacroIS,
    MacroStar,
)
from repro.routing import (
    expand_star_word,
    route_length_bound,
    sc_route,
    simplify_word,
    star_distance,
    star_distance_array,
    star_distance_between,
    star_eccentricity,
    star_route,
    star_route_to_identity,
)
from repro.topologies import StarGraph


class TestStarRouting:
    def test_identity_needs_no_moves(self):
        assert star_route_to_identity(Permutation.identity(5)) == []

    def test_single_transposition(self):
        assert star_route_to_identity(Permutation([3, 2, 1])) == ["T3"]

    def test_route_is_valid(self):
        star = StarGraph(5)
        rng = random.Random(5)
        for _ in range(20):
            p = Permutation.random(5, rng)
            word = star_route_to_identity(p)
            assert star.apply_word(p, word).is_identity()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_route_matches_bfs_distance_exhaustively(self, k):
        star = StarGraph(k)
        bfs_dist = {}
        for depth, layer in enumerate(star.bfs_layers()):
            for node in layer:
                bfs_dist[node] = depth
        for p in Permutation.all_permutations(k):
            word = star_route_to_identity(p)
            # Undirected + inverse-closed: distance to identity equals
            # distance from identity to p^{-1}; star generators are
            # self-inverse so d(p, id) = d(id, p).
            assert len(word) == bfs_dist[p], p

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_distance_formula_exhaustive(self, k):
        star = StarGraph(k)
        dist = star.distances_from()
        for p in Permutation.all_permutations(k):
            assert star_distance(p) == dist[p], p

    def test_source_target_routing(self):
        star = StarGraph(5)
        rng = random.Random(9)
        for _ in range(10):
            u = Permutation.random(5, rng)
            v = Permutation.random(5, rng)
            word = star_route(u, v)
            assert star.apply_word(u, word) == v
            assert len(word) == star_distance_between(u, v)

    def test_distance_between_symmetric(self):
        rng = random.Random(2)
        for _ in range(10):
            u = Permutation.random(6, rng)
            v = Permutation.random(6, rng)
            assert star_distance_between(u, v) == star_distance_between(v, u)

    @given(st.integers(0, factorial(7) - 1))
    @settings(max_examples=50)
    def test_distance_within_diameter(self, rank):
        p = Permutation.unrank(7, rank)
        assert 0 <= star_distance(p) <= star_eccentricity(7)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_distance_array_matches_formula(self, k):
        """The vectorised cycle count equals ``star_distance`` on every
        permutation of ``S_k``."""
        perms = list(Permutation.all_permutations(k))
        labels = np.asarray([p.symbols for p in perms])
        assert star_distance_array(labels).tolist() == [
            star_distance(p) for p in perms
        ]

    def test_eccentricity_attained(self):
        # Some 5-symbol permutation is at distance exactly 6.
        assert max(
            star_distance(p) for p in Permutation.all_permutations(5)
        ) == star_eccentricity(5)


class TestScRouting:
    NETWORKS = [
        MacroStar(2, 2),
        CompleteRotationStar(2, 2),
        InsertionSelection(5),
        MacroIS(2, 2),
    ]

    @pytest.mark.parametrize("net", NETWORKS, ids=lambda n: n.name)
    def test_route_is_valid(self, net):
        rng = random.Random(31)
        for _ in range(10):
            u = Permutation.random(net.k, rng)
            v = Permutation.random(net.k, rng)
            word = sc_route(net, u, v)
            assert net.apply_word(u, word) == v

    @pytest.mark.parametrize("net", NETWORKS, ids=lambda n: n.name)
    def test_route_respects_dilation_bound(self, net):
        rng = random.Random(37)
        for _ in range(10):
            u = Permutation.random(net.k, rng)
            v = Permutation.random(net.k, rng)
            word = sc_route(net, u, v, simplify=False)
            bound = route_length_bound(net, star_distance_between(u, v))
            assert len(word) <= bound

    def test_simplify_shortens_but_stays_valid(self):
        net = MacroStar(2, 2)
        u = Permutation([5, 4, 3, 2, 1])
        raw = sc_route(net, u, net.identity, simplify=False)
        slim = sc_route(net, u, net.identity, simplify=True)
        assert len(slim) <= len(raw)
        assert net.apply_word(u, slim).is_identity()

    def test_simplify_cancels_inverse_pairs(self):
        net = MacroStar(2, 2)
        word = ["S(2,2)", "S(2,2)", "T2"]
        assert simplify_word(net, word) == ["T2"]

    def test_simplify_cascades(self):
        net = MacroStar(2, 2)
        word = ["T2", "S(2,2)", "S(2,2)", "T2"]
        assert simplify_word(net, word) == []

    def test_expand_rejects_non_star_moves(self):
        with pytest.raises(ValueError):
            expand_star_word(MacroStar(2, 2), ["S(2,2)"])

    def test_route_not_much_longer_than_shortest(self):
        """Emulated routes are within the dilation factor of BFS-optimal."""
        net = MacroStar(2, 2)
        rng = random.Random(41)
        for _ in range(5):
            u = Permutation.random(5, rng)
            word = sc_route(net, u, net.identity)
            shortest = net.distance(u, net.identity)
            assert shortest <= len(word) <= 3 * shortest + 2


class TestBidirectional:
    """The frontier engine's meet-in-the-middle point distances."""

    def test_agrees_with_bfs_exhaustively(self):
        net = MacroStar(2, 2)
        dist = net.distances_from()
        for p in list(Permutation.all_permutations(5))[::7]:
            assert pair_distance(net, net.identity, p) == dist[p]

    def test_zero_distance(self):
        net = MacroStar(2, 2)
        assert pair_distance(net, net.identity, net.identity) == 0
        assert identity_distance(net, net.identity) == 0

    def test_directed_graph(self):
        from repro.topologies import RotatorGraph

        rot = RotatorGraph(4)
        dist = rot.distances_from()
        for p, d in list(dist.items())[::5]:
            assert pair_distance(rot, rot.identity, p) == d

    def test_max_depth_cutoff(self):
        net = MacroStar(2, 2)
        far = Permutation([5, 4, 3, 2, 1])
        true_d = net.distance(net.identity, far)
        assert identity_distance(net, far, max_depth=true_d) == true_d
        with pytest.raises(RuntimeError):
            identity_distance(net, far, max_depth=true_d - 1)

    def test_unreachable_target_reads_minus_one(self):
        everything = list(Permutation.all_permutations(6))
        for gens in (
            [insertion(6, 6)],                           # directed C_6
            [transposition(6, 2), transposition(6, 3)],  # undirected S_3
        ):
            graph = CayleyGraph(GeneratorSet(gens))
            reach = graph.distances_from()
            targets = list(reach) + [
                p for p in everything[::37] if p not in reach
            ]
            assert len(targets) > len(reach)
            # each ball keeps a 6!-bit map (90 bytes) at 360, not at 359
            for budget in (360, 359):
                for target in targets:
                    assert identity_distance(
                        graph, target, memory_budget_bytes=budget
                    ) == reach.get(target, -1)

    def test_works_on_larger_instance(self):
        # 7! = 5040 nodes — routine for bidirectional search.
        net = MacroStar(3, 2)
        p = Permutation([7, 6, 5, 4, 3, 2, 1])
        d = pair_distance(net, net.identity, p)
        assert d == net.distance(net.identity, p)
        assert 0 < d <= net.star_emulation_dilation() * star_eccentricity(7)
