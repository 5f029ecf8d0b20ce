"""Differential tests for the compiled (array-backed) graph core.

The compiled backend promises *exact* agreement with the object-based
reference path — same distances, same layer contents in the same
discovery order, same spanning-tree parents, same shortest paths — on
every network family.  These tests hold it to that promise by running both
paths side by side on all ten families, plus hypothesis round-trips for
the vectorised Lehmer rank/unrank against ``Permutation.rank``/``unrank``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.simulator import PacketSimulator
from repro.comm.spanning_trees import (
    _object_bfs_spanning_tree,
    bfs_spanning_tree,
)
from repro.core import MAX_COMPILE_K, CompiledGraph, tablestore
from repro.core.compiled import (
    parity_array,
    permutation_table,
    rank_array,
    tree_word,
    tree_words,
    unrank_array,
)
from repro.core.permutations import Permutation, factorial
from repro.emulation import CommModel
from repro.io import attach_compiled_tables
from repro.networks import make_network

#: all ten families at sizes small enough to BFS twice per test
ALL_FAMILIES = [
    ("MS", {"l": 2, "n": 2}),
    ("RS", {"l": 2, "n": 2}),
    ("complete-RS", {"l": 2, "n": 2}),
    ("MR", {"l": 2, "n": 2}),
    ("RR", {"l": 2, "n": 2}),
    ("complete-RR", {"l": 2, "n": 2}),
    ("MIS", {"l": 2, "n": 2}),
    ("RIS", {"l": 2, "n": 2}),
    ("complete-RIS", {"l": 2, "n": 2}),
    ("IS", {"k": 4}),
]


@pytest.fixture(params=ALL_FAMILIES, ids=lambda p: p[0])
def net(request):
    family, kwargs = request.param
    return make_network(family, **kwargs)


# ----------------------------------------------------------------------
# Vectorised Lehmer rank / unrank
# ----------------------------------------------------------------------


class TestRankUnrank:
    @given(st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_permutation_rank(self, k, data):
        ranks = data.draw(
            st.lists(
                st.integers(0, factorial(k) - 1), min_size=1, max_size=8
            )
        )
        labels = np.array(
            [Permutation.unrank(k, r).symbols for r in ranks]
        )
        assert rank_array(labels).tolist() == ranks

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unrank_matches_permutation_unrank(self, k, data):
        ranks = data.draw(
            st.lists(
                st.integers(0, factorial(k) - 1), min_size=1, max_size=8
            )
        )
        labels = unrank_array(k, np.array(ranks))
        expected = [Permutation.unrank(k, r).symbols for r in ranks]
        assert [tuple(int(s) for s in row) for row in labels] == expected

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, k, data):
        ranks = data.draw(
            st.lists(
                st.integers(0, factorial(k) - 1), min_size=1, max_size=8
            )
        )
        assert rank_array(unrank_array(k, np.array(ranks))).tolist() == ranks

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    @pytest.mark.parametrize("k", range(8, 21))
    def test_rank_matches_permutation_rank_large_k(self, k, dtype):
        rng = np.random.default_rng(k)
        rows = [tuple(int(s) + 1 for s in rng.permutation(k))
                for _ in range(32)]
        rows.append(tuple(range(k, 0, -1)))  # the last rank, k! - 1
        expected = [Permutation(row).rank() for row in rows]
        assert expected[-1] == factorial(k) - 1
        assert rank_array(np.array(rows, dtype=dtype)).tolist() == expected

    def test_rank_spans_row_blocks(self):
        # 8! rows are more than one of rank_array's row blocks
        assert np.array_equal(
            rank_array(permutation_table(8)), np.arange(factorial(8))
        )

    def test_permutation_table_is_lexicographic(self):
        table = permutation_table(4)
        assert table.shape == (24, 4)
        rows = [tuple(int(s) for s in row) for row in table]
        assert rows == sorted(rows)
        assert rows[0] == (1, 2, 3, 4)  # rank 0 = identity

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_array(3, np.array([6]))
        with pytest.raises(ValueError):
            unrank_array(3, np.array([-1]))

    def test_permutation_table_rejects_large_k(self):
        with pytest.raises(ValueError):
            permutation_table(MAX_COMPILE_K + 1)


class TestParity:
    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=60, deadline=None)
    def test_cycle_parity_matches_inversions(self, symbols):
        perm = Permutation(symbols)
        assert perm.parity() == perm.num_inversions() % 2

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_parity_array_matches_scalar(self, k, data):
        ranks = data.draw(
            st.lists(
                st.integers(0, factorial(k) - 1), min_size=1, max_size=8
            )
        )
        labels = unrank_array(k, np.array(ranks))
        expected = [Permutation.unrank(k, r).parity() for r in ranks]
        assert parity_array(labels).tolist() == expected


# ----------------------------------------------------------------------
# Differential: compiled BFS vs the object reference path, all families
# ----------------------------------------------------------------------


class TestDifferentialBfs:
    def test_distances_match_object_bfs(self, net):
        compiled = net.compiled()
        reference = net.distances_from()  # object bfs_layers walk
        assert int((compiled.distances >= 0).sum()) == len(reference)
        for node, d in reference.items():
            assert int(compiled.distances[net.node_id(node)]) == d

    def test_layers_match_in_discovery_order(self, net):
        compiled = net.compiled()
        layers = net.bfs_layers()  # object implementation (memoised)
        assert compiled.num_layers() == len(layers)
        for depth, layer in enumerate(layers):
            ids = [net.node_id(p) for p in layer]
            assert compiled.layer_ids(depth).tolist() == ids

    def test_spanning_tree_parents_match(self, net):
        assert bfs_spanning_tree(net) == _object_bfs_spanning_tree(net)

    @pytest.mark.parametrize(
        "family,kwargs", ALL_FAMILIES, ids=[f for f, _ in ALL_FAMILIES]
    )
    def test_shortest_paths_match_object_bfs(self, family, kwargs):
        """``shortest_path`` walks the compiled BFS tree; with
        compiling forced off it runs the object BFS from the source.
        Both give the same ``[(dimension, node), ...]`` path."""
        fast = make_network(family, **kwargs)
        slow = make_network(family, **kwargs)
        slow.can_compile = lambda: False
        nodes = list(fast.nodes())
        source = nodes[1]
        for target in nodes[:: max(1, len(nodes) // 12)]:
            assert fast.shortest_path(source, target) == slow.shortest_path(
                source, target
            )
        assert fast.compiled_or_none() is not None
        assert slow.compiled_or_none() is None

    @pytest.mark.parametrize(
        "family,kwargs", ALL_FAMILIES + [("IS", {"k": 5})],
        ids=[f for f, _ in ALL_FAMILIES] + ["IS5"],
    )
    def test_tree_words_match_tree_word(self, family, kwargs):
        """The batch walk gives every rank (the root's empty word
        included) the word the scalar walk gives it."""
        compiled = make_network(family, **kwargs).compiled()
        ids = np.arange(compiled.num_nodes)
        words = tree_words(compiled.parent, compiled.parent_gen, ids,
                           compiled.distances)
        assert words[0] == []
        assert words == [
            tree_word(compiled.parent, compiled.parent_gen, 0, i)
            for i in ids.tolist()
        ]

    def test_reverse_distances(self, net):
        compiled = net.compiled()
        reverse = compiled.reverse_distances
        identity = net.identity
        # spot-check against an object BFS rooted at each sampled node
        for node in list(net.nodes())[:: max(1, net.num_nodes // 8)]:
            expected = net.distances_from(node)[identity]
            assert int(reverse[net.node_id(node)]) == expected

    def test_statistics_agree(self, net):
        compiled = net.compiled()
        layers = net.bfs_layers()
        assert compiled.diameter() == len(layers) - 1
        assert compiled.distance_distribution() == [
            len(layer) for layer in layers
        ]
        assert compiled.is_connected()


class TestCompiledApi:
    def test_refuses_large_k(self):
        from repro.core.compiled import CompileBudgetError

        big = make_network("MS", l=5, n=2)  # k = 11
        assert not big.can_compile()
        with pytest.raises(CompileBudgetError, match="frontier"):
            CompiledGraph(big)
        # CompileBudgetError subclasses ValueError, so pre-existing
        # guards that catch ValueError still work
        with pytest.raises(ValueError):
            CompiledGraph(big)

    def test_node_id_round_trip(self, net):
        compiled = net.compiled()
        for node_id in (0, 1, net.num_nodes - 1):
            assert compiled.node_id(compiled.node(node_id)) == node_id
        # interning: same object back
        assert compiled.node(3) is compiled.node(3)

    def test_neighbor_id_matches_object_neighbor(self, net):
        compiled = net.compiled()
        node = list(net.nodes())[5]
        node_id = net.node_id(node)
        for gen in net.generators:
            expected = net.node_id(node * gen.perm)
            assert compiled.neighbor_id(node_id, gen.name) == expected

    def test_distance_raises_on_unreachable(self):
        # MR's rotations generate only even permutations for odd cycle
        # lengths; an odd target is unreachable.
        net = make_network("MS", l=2, n=2)
        compiled = net.compiled()
        with pytest.raises(IndexError):
            compiled.layer_ids(compiled.num_layers())

    def test_parity_counts(self, net):
        counts = net.compiled().parity_counts()
        assert counts[0] + counts[1] == net.num_nodes
        assert counts[0] == counts[1]  # k >= 2: half even, half odd


# ----------------------------------------------------------------------
# Simulator: integer-ID fast path vs object path
# ----------------------------------------------------------------------


class TestSimulatorEquivalence:
    @pytest.mark.parametrize(
        "model", [CommModel.ALL_PORT, CommModel.SINGLE_PORT]
    )
    def test_id_and_object_paths_agree(self, model):
        net = make_network("MS", l=2, n=2)
        nodes = list(net.nodes())
        jobs = [
            (nodes[i],
             [d for d, _ in net.shortest_path(nodes[i], nodes[-1 - i])])
            for i in range(0, 12, 3)
        ]
        results = []
        for use_ids in (True, False):
            sim = PacketSimulator(net, model, use_ids=use_ids)
            for source, path in jobs:
                sim.submit(source, list(path))
            results.append(sim.run())
        fast, slow = results
        assert fast.rounds == slow.rounds
        assert fast.delivered == slow.delivered
        assert fast.max_queue == slow.max_queue
        assert fast.link_traffic == slow.link_traffic

    def test_packets_end_at_same_nodes(self):
        net = make_network("RS", l=2, n=2)
        dims = [g.name for g in net.generators]
        word = [dims[0], dims[1]]
        destination = net.apply_word(net.identity, word)
        sim = PacketSimulator(net, CommModel.ALL_PORT, use_ids=True)
        sim.submit(net.identity, word)
        sim.run()
        assert sim.packets[0].at == destination


# ----------------------------------------------------------------------
# on-disk table stores (repro.io) and the CLI cache flag
# ----------------------------------------------------------------------


class TestTableCache:
    def test_store_round_trip(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        reference = net.compiled()
        creator = make_network("MS", l=2, n=2)
        _, mode = attach_compiled_tables(creator, cache_dir=tmp_path)
        assert mode == "create"

        fresh = make_network("MS", l=2, n=2)
        loaded, mode = attach_compiled_tables(fresh, cache_dir=tmp_path)
        assert mode == "attach"
        assert fresh.compiled() is loaded  # installed as the backend
        np.testing.assert_array_equal(
            loaded.distances, reference.distances
        )
        np.testing.assert_array_equal(loaded.parent, reference.parent)
        np.testing.assert_array_equal(loaded.order, reference.order)
        assert loaded.diameter() == reference.diameter()
        # loaded tables skip the BFS but still answer route queries
        nodes = list(fresh.nodes())
        assert fresh.shortest_path(nodes[1], nodes[7]) == net.shortest_path(
            nodes[1], nodes[7]
        )

    def test_load_refuses_mismatched_network(self, tmp_path):
        ms = make_network("MS", l=2, n=2)
        tablestore.create_store(ms, tmp_path)
        rs = make_network("RS", l=2, n=2)
        tablestore.store_path(ms, tmp_path).rename(
            tablestore.store_path(rs, tmp_path)
        )
        with pytest.raises(tablestore.TableStoreError, match="mismatch"):
            tablestore.attach_store(rs, tmp_path)

    def test_properties_sweep_uses_table_cache(self, tmp_path):
        from repro.experiments.runners import properties_sweep

        rows = list(
            properties_sweep(
                instances=(("MS", 2, 2),), table_cache=str(tmp_path)
            )
        )
        assert len(rows) == 1
        assert (tmp_path / "MS(2,2).tables").exists()
        again = list(
            properties_sweep(
                instances=(("MS", 2, 2),), table_cache=str(tmp_path)
            )
        )
        assert again == rows

    def test_cli_table_cache_saves_then_loads(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "tables")
        argv = [
            "properties", "MS", "--l", "2", "--n", "2",
            "--table-cache", cache,
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "table cache: create" in err
        assert (tmp_path / "tables" / "MS(2,2).tables").exists()

        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "table cache: attach" in err

    def test_cli_table_cache_skips_uncompilable(self, tmp_path, capsys):
        """k = 11 tables cannot be materialised: the flag is a no-op."""
        from repro.cli import main

        cache = tmp_path / "tables"
        argv = [
            "route", "MS", "--l", "5", "--n", "2",
            "--source", "2,1,3,4,5,6,7,8,9,10,11",
            "--table-cache", str(cache),
        ]
        assert main(argv) == 0
        assert "table cache:" not in capsys.readouterr().err
        assert not cache.exists()
