"""Tests for the bounds and property-analysis helpers."""


import pytest

from repro.analysis import (
    balanced_sc_degree_asymptotic,
    bubble_sort_layer_counts,
    degree_formula,
    degree_of_balanced_sc,
    emulation_optimality_ratio,
    is_regular,
    is_vertex_symmetric_sample,
    log_ratio,
    mean_distance_lower_bound,
    mnb_time_bound_allport,
    moore_diameter_lower_bound,
    network_profile,
    star_degree_asymptotic,
    star_layer_counts,
    te_time_bound_allport,
    traffic_is_uniform,
    transposition_layer_counts,
)
from repro.core.permutations import factorial
from repro.networks import (
    CompleteRotationIS,
    CompleteRotationRotator,
    CompleteRotationStar,
    InsertionSelection,
    MacroIS,
    MacroRotator,
    MacroStar,
    RotationIS,
    RotationRotator,
    RotationStar,
)
from repro.topologies import BubbleSortGraph, StarGraph, TranspositionNetwork


class TestMooreBound:
    def test_known_values(self):
        # complete graph K_4: degree 3 reaches 4 nodes at depth 1
        assert moore_diameter_lower_bound(3, 4) == 1
        # binary-ish growth: 1 + 2 + 4 = 7
        assert moore_diameter_lower_bound(2, 7) == 2
        assert moore_diameter_lower_bound(2, 8) == 3

    def test_single_node(self):
        assert moore_diameter_lower_bound(3, 1) == 0

    def test_bounds_real_networks(self):
        """No network beats the Moore bound."""
        for net in (StarGraph(5), MacroStar(2, 2), InsertionSelection(4)):
            assert net.diameter() >= moore_diameter_lower_bound(
                net.degree, net.num_nodes
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            moore_diameter_lower_bound(0, 5)


class TestStarLayerCounts:
    """The closed-form k-star profile against BFS profiles; MS(k-1,1)
    is isomorphic to star(k)."""

    @pytest.mark.parametrize("k", range(3, 9))
    def test_matches_compiled_profiles(self, k):
        counts = star_layer_counts(k)
        assert counts == StarGraph(k).compiled().distance_distribution()
        assert counts == (
            MacroStar(k - 1, 1).compiled().distance_distribution()
        )

    def test_matches_frontier_profile_past_small_k(self):
        from repro.frontier import FrontierBFS

        result = FrontierBFS(MacroStar(8, 1)).run()
        assert result.layer_sizes == star_layer_counts(9)

    def test_totals_and_diameter(self):
        for k in range(1, 21):
            counts = star_layer_counts(k)
            assert sum(counts) == factorial(k)
            assert len(counts) - 1 == StarGraph.diameter_formula(k)
        with pytest.raises(ValueError):
            star_layer_counts(0)


class TestTranspositionGraphLayerCounts:
    """The Mahonian (bubble-sort) and Stirling (k-TN) closed forms
    against compiled BFS profiles."""

    @pytest.mark.parametrize("k", range(3, 9))
    def test_matches_compiled_profiles(self, k):
        assert bubble_sort_layer_counts(k) == (
            BubbleSortGraph(k).compiled().distance_distribution()
        )
        assert transposition_layer_counts(k) == (
            TranspositionNetwork(k).compiled().distance_distribution()
        )

    def test_totals_and_diameter(self):
        assert bubble_sort_layer_counts(4) == [1, 3, 5, 6, 5, 3, 1]
        assert transposition_layer_counts(4) == [1, 6, 11, 6]
        for k in range(2, 21):
            bubble = bubble_sort_layer_counts(k)
            tn = transposition_layer_counts(k)
            assert sum(bubble) == sum(tn) == factorial(k)
            assert len(bubble) - 1 == BubbleSortGraph.diameter_formula(k)
            assert len(tn) - 1 == TranspositionNetwork.diameter_formula(k)
            assert tn[1] == TranspositionNetwork.degree_formula(k)
        assert bubble_sort_layer_counts(1) == transposition_layer_counts(
            1
        ) == [1]
        for counts in (bubble_sort_layer_counts, transposition_layer_counts):
            with pytest.raises(ValueError):
                counts(0)


class TestMeanDistanceBound:
    def test_bounds_real_networks(self):
        for net in (StarGraph(4), MacroStar(2, 2)):
            assert net.average_distance() >= mean_distance_lower_bound(
                net.degree, net.num_nodes
            )

    def test_small_case_exact(self):
        # 3 nodes, degree 2: both others at distance 1
        assert mean_distance_lower_bound(2, 3) == 1.0


class TestAsymptotics:
    def test_degree_of_balanced_sc(self):
        assert degree_of_balanced_sc(5) == 3  # n = 2: MS(2,2)
        assert degree_of_balanced_sc(10) == 5  # n = 3
        with pytest.raises(ValueError):
            degree_of_balanced_sc(7)

    def test_log_ratio_monotone(self):
        assert log_ratio(factorial(6)) > log_ratio(factorial(4))
        with pytest.raises(ValueError):
            log_ratio(2)

    def test_star_degree_tracks_log_ratio(self):
        """k - 1 = Theta(log N / log log N): the ratio stays in a narrow
        band as k grows."""
        ratios = [star_degree_asymptotic(k) for k in range(5, 12)]
        assert max(ratios) / min(ratios) < 1.6

    def test_balanced_sc_degree_tracks_sqrt(self):
        ratios = [balanced_sc_degree_asymptotic(n) for n in range(2, 7)]
        assert max(ratios) / min(ratios) < 1.6


class TestTaskBounds:
    def test_mnb_bound(self):
        assert mnb_time_bound_allport(120, 4) == 30
        assert mnb_time_bound_allport(24, 3) == 8

    def test_te_bound_positive(self):
        # Moore mean distance for (d=4, N=120) is ~3.09, so the bound is
        # (119 * 3.09) / 4 = 92 — below any achievable TE time on the
        # 5-star (whose true average distance is larger).
        assert te_time_bound_allport(120, 4) == 92.0

    def test_optimality_ratio(self):
        # MS(3,3): degree 5 emulating 10-star degree 9: T = 2
        assert emulation_optimality_ratio(6, 5, 9) == 3.0


class TestProfiles:
    def test_profile_contents(self):
        row = network_profile(MacroStar(2, 2))
        assert row["nodes"] == 120
        assert row["degree"] == 3
        assert row["diameter"] == 8
        assert row["undirected"] is True

    def test_profile_without_exact(self):
        row = network_profile(MacroStar(3, 2), exact=False)
        assert "diameter" not in row

    def test_vertex_symmetry_all_families(self):
        nets = [
            MacroStar(2, 2), RotationStar(2, 2), CompleteRotationStar(3, 1),
            MacroRotator(2, 2), RotationRotator(2, 2),
            CompleteRotationRotator(3, 1), InsertionSelection(4),
            MacroIS(2, 2), RotationIS(2, 2), CompleteRotationIS(3, 1),
        ]
        for net in nets:
            assert is_vertex_symmetric_sample(net, samples=2), net.name

    def test_regularity(self):
        assert is_regular(MacroStar(2, 2))
        assert is_regular(MacroRotator(2, 2))

    def test_degree_formulas_match_construction(self):
        nets = [
            MacroStar(3, 2), RotationStar(3, 2), CompleteRotationStar(3, 2),
            MacroRotator(3, 2), RotationRotator(3, 2),
            CompleteRotationRotator(3, 2), InsertionSelection(5),
            MacroIS(3, 2), RotationIS(3, 2), CompleteRotationIS(3, 2),
            RotationStar(2, 3), RotationIS(2, 3),
        ]
        for net in nets:
            assert degree_formula(net) == net.degree, net.name

    def test_traffic_uniformity_helper(self):
        assert traffic_is_uniform({})
        assert traffic_is_uniform({"a": 4, "b": 2}, factor=2.0)
        assert not traffic_is_uniform({"a": 9, "b": 2}, factor=2.0)
