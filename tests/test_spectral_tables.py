"""Tests for spectral analysis."""

import pytest

from repro.analysis.spectral import (
    adjacency_matrix,
    adjacency_spectrum,
    cheeger_bounds,
    has_integral_spectrum,
    is_bipartite_spectral,
    spectral_gap,
)
from repro.analysis import is_bipartite_by_parity
from repro.networks import InsertionSelection, MacroRotator, MacroStar
from repro.topologies import BubbleSortGraph, StarGraph, TranspositionNetwork


class TestAdjacency:
    def test_matrix_shape_and_regularity(self):
        star = StarGraph(4)
        matrix = adjacency_matrix(star)
        assert matrix.shape == (24, 24)
        assert (matrix.sum(axis=1) == 3).all()
        assert (matrix == matrix.T).all()

    def test_directed_matrix_not_symmetric(self):
        mr = MacroRotator(2, 2)
        matrix = adjacency_matrix(mr)
        assert (matrix.sum(axis=1) == 3).all()
        assert not (matrix == matrix.T).all()


class TestSpectrum:
    def test_largest_eigenvalue_is_degree(self):
        for graph in (StarGraph(4), MacroStar(2, 2), InsertionSelection(4)):
            spectrum = adjacency_spectrum(graph)
            assert abs(float(spectrum[0]) - graph.degree) < 1e-8

    def test_gap_positive_iff_connected(self):
        assert spectral_gap(StarGraph(4)) > 0
        assert spectral_gap(MacroStar(2, 2)) > 0

    def test_bipartite_witness_matches_parity(self):
        for graph in (StarGraph(4), MacroStar(2, 2), MacroStar(2, 3),
                      BubbleSortGraph(4)):
            assert is_bipartite_spectral(graph) == is_bipartite_by_parity(
                graph
            )

    def test_star_and_tn_integral_bubble_sort_not(self):
        """Integrality holds when the transposition set forms a star or
        a complete graph on the symbols (star graph, TN) — and fails for
        the path (bubble-sort: eigenvalue 1 + sqrt(2) at k = 4)."""
        assert has_integral_spectrum(StarGraph(4))
        assert has_integral_spectrum(TranspositionNetwork(4))
        assert not has_integral_spectrum(BubbleSortGraph(4))

    def test_cheeger_sandwich(self):
        lower, upper = cheeger_bounds(StarGraph(4))
        assert 0 < lower < upper

    def test_gap_requires_undirected(self):
        with pytest.raises(ValueError):
            spectral_gap(MacroRotator(2, 2))

    def test_is_network_better_connected_than_ms(self):
        """Higher degree, larger spectral gap (at 120 nodes)."""
        assert spectral_gap(InsertionSelection(5)) > spectral_gap(
            MacroStar(2, 2)
        )
