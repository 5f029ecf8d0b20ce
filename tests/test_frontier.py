"""Differential tests for the memory-bounded frontier engine.

The frontier BFS promises *exact* agreement with the compiled
whole-frontier BFS — same layer profile, same layer contents in the
same discovery order — while never holding the node table.  These
tests hold it to that promise on all ten families and on both visited
sets (the rank bit map and the sorted-key window), check that the
memory budget changes batch counts but never results (hypothesis),
and exercise the spill/resume machinery including a SIGKILL
mid-layer.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    average_distance_from_layers,
    network_profile,
    profile_within_moore,
    sampled_distances,
)
from repro.core import CompiledGraph
from repro.core.compiled import CompileBudgetError, estimate_table_bytes
from repro.core.permutations import Permutation, factorial
from repro.core.tablestore import store_digest
from repro.frontier import (
    FrontierBFS,
    FrontierResult,
    FrontierRunDir,
    SpillError,
    frontier_profile,
    identity_distance,
    make_key_fn,
    pair_distance,
)
from repro.frontier import engine
from repro.frontier.encoding import (
    VisitedMap,
    chunk_rows,
    expand_states,
    in_sorted,
)
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


def compiled_profile(compiled: CompiledGraph):
    starts = compiled.layer_starts
    return [int(starts[i + 1] - starts[i])
            for i in range(compiled.num_layers())]


def map_budget(k: int) -> int:
    """The smallest budget whose half holds a ``k!``-bit visited map:
    ``FrontierBFS`` dedups against the map at this budget and against
    the sorted-key window one byte below it."""
    return 2 * ((factorial(k) + 7) // 8)


@pytest.fixture
def dedup_maps(monkeypatch):
    """Per ``in_any`` call of the engine: did it test a VisitedMap?"""
    calls = []
    real = engine.in_any

    def spy(values, refs):
        calls.append(any(isinstance(ref, VisitedMap) for ref in refs))
        return real(values, refs)

    monkeypatch.setattr(engine, "in_any", spy)
    return calls


def assert_map_matches_window(graph, dedup_maps) -> FrontierResult:
    """Run ``graph`` once on each side of the map line; both runs must
    give identical layers in identical order."""
    line = map_budget(graph.k)
    on_map = FrontierBFS(
        graph, memory_budget_bytes=line, keep_layers=True,
    ).run()
    assert dedup_maps and all(dedup_maps)
    dedup_maps.clear()
    on_window = FrontierBFS(
        graph, memory_budget_bytes=line - 1, keep_layers=True,
    ).run()
    assert dedup_maps and not any(dedup_maps)
    assert on_map.layer_sizes == on_window.layer_sizes
    for ours, theirs in zip(on_map.layers, on_window.layers):
        assert np.array_equal(ours, theirs)
    return on_map


class TestDifferential:
    """Frontier vs. compiled BFS, all ten families."""

    def test_layers_diameter_first_hops_identical(self, net):
        compiled = net.compiled()
        result = FrontierBFS(
            net, memory_budget_bytes=1 << 20, keep_layers=True,
        ).run()
        assert result.layer_sizes == compiled_profile(compiled)
        assert result.diameter == compiled.diameter()
        assert result.num_states == net.num_nodes
        from repro.core.compiled import rank_array

        for depth in range(compiled.num_layers()):
            # same states, same discovery order
            assert np.array_equal(
                rank_array(result.layers[depth]), compiled.layer_ids(depth)
            )

    def test_visited_map_and_window_agree(self, net, dedup_maps):
        result = assert_map_matches_window(net, dedup_maps)
        assert result.layer_sizes == compiled_profile(net.compiled())

    def test_profile_respects_moore_caps(self, net):
        result = frontier_profile(net, memory_budget_bytes=1 << 18)
        assert profile_within_moore(result.layer_sizes, net.degree)
        assert average_distance_from_layers(
            result.layer_sizes
        ) == pytest.approx(net.compiled().average_distance())

    def test_network_profile_frontier_method(self, net):
        compiled_row = network_profile(net, method="compiled")
        frontier_row = network_profile(net, method="frontier")
        assert frontier_row["method"] == "frontier"
        assert frontier_row["diameter"] == compiled_row["diameter"]
        assert frontier_row["avg_distance"] == compiled_row["avg_distance"]

    def test_bidirectional_distances(self, net):
        compiled = net.compiled()
        rng = np.random.default_rng(3)
        for _ in range(12):
            target = Permutation.random(net.k, rng)
            assert identity_distance(
                net, target, memory_budget_bytes=1 << 18
            ) == int(compiled.distances[target.rank()])

    def test_bidirectional_map_and_window_agree(self, net, dedup_maps):
        # each ball dedups within half the budget, so both keep a map at
        # twice the engine's line and neither does one byte below it
        line = 2 * map_budget(net.k)
        distances = net.compiled().distances
        rng = np.random.default_rng(13)
        targets = [Permutation.random(net.k, rng) for _ in range(12)]
        for budget, on_map in ((line, True), (line - 1, False)):
            dedup_maps.clear()
            for target in targets:
                assert identity_distance(
                    net, target, memory_budget_bytes=budget
                ) == int(distances[target.rank()])
            assert dedup_maps
            assert all(used == on_map for used in dedup_maps)

    def test_pair_distance_matches_compiled(self, net):
        rng = np.random.default_rng(5)
        source = Permutation.random(net.k, rng)
        target = Permutation.random(net.k, rng)
        assert pair_distance(net, source, target) == net.distance(
            source, target
        )

    def test_sampled_distances_differential(self, net):
        exact = sampled_distances(net, pairs=16, seed=11,
                                  method="compiled")
        sampled = sampled_distances(net, pairs=16, seed=11,
                                    method="frontier",
                                    memory_budget_bytes=1 << 18)
        # same seed draws the same pairs; frontier must agree exactly
        assert sampled["samples"] == exact["samples"]
        assert sampled["mean"] == exact["mean"]
        assert sampled["method"] == "frontier"
        lo, hi = sampled["ci95"]
        assert lo <= sampled["mean"] <= hi


class TestBudgetInvariance:
    @settings(max_examples=12, deadline=None)
    @given(budget=st.integers(min_value=2_048, max_value=1 << 20))
    def test_budget_changes_batches_not_results(self, budget):
        net = make_network("MS", l=2, n=2)
        reference = FrontierBFS(
            net, memory_budget_bytes=1 << 22, keep_layers=True,
        ).run()
        result = FrontierBFS(
            net, memory_budget_bytes=budget, keep_layers=True,
        ).run()
        assert result.layer_sizes == reference.layer_sizes
        assert result.diameter == reference.diameter
        for ours, theirs in zip(result.layers, reference.layers):
            assert np.array_equal(ours, theirs)
        # smaller budgets may only take MORE batches, never fewer
        assert result.batches >= reference.batches

    def test_chunk_rows_floor(self):
        assert chunk_rows(1, 12, 11) == 32
        assert chunk_rows(1 << 30, 12, 11) > 1 << 15


class TestEncoding:
    def test_lehmer_keys_injective_small_k(self):
        from itertools import permutations

        key_fn, exact = make_key_fn(5)
        assert exact
        labels = np.array(list(permutations(range(1, 6))), dtype=np.uint8)
        keys = key_fn(labels)
        assert len(np.unique(keys)) == len(labels)

    def test_lehmer_keys_for_mid_k(self):
        key_fn, exact = make_key_fn(18)
        assert exact
        rng = np.random.default_rng(0)
        rows = np.stack([
            rng.permutation(18) + 1 for _ in range(64)
        ]).astype(np.uint8)
        keys = key_fn(rows)
        assert len(np.unique(keys)) == 64

    def test_hash_keys_beyond_exact_range(self):
        key_fn, exact = make_key_fn(24, seed=1)
        assert not exact
        rng = np.random.default_rng(1)
        rows = np.stack([
            rng.permutation(24) + 1 for _ in range(512)
        ]).astype(np.uint8)
        assert len(np.unique(key_fn(rows))) == 512

    @pytest.mark.parametrize("family", ["MS", "MR"])
    def test_hash_keyed_profiles_match_compiled(self, monkeypatch, family):
        # the hashed-key path (k > 20), forced at small k by shrinking
        # the exact-key ceiling; the seed changes keys, never layers
        import repro.frontier.encoding as encoding

        monkeypatch.setattr(encoding, "MAX_EXACT_KEY_K", 0)
        net = make_network(family, l=2, n=3)
        ref = compiled_profile(net.compiled())
        for seed in (0, 20260807):
            result = FrontierBFS(
                net, memory_budget_bytes=1 << 18, key_seed=seed,
            ).run()
            assert not result.exact_keys
            assert result.layer_sizes == ref

    def test_expand_states_candidate_order(self):
        net = make_network("MS", l=2, n=2)
        from repro.frontier import generator_columns, identity_state

        cols = generator_columns(net)
        out = expand_states(identity_state(net.k), cols)
        # row g is generator g applied to the identity
        for gi, gen in enumerate(net.generators):
            assert tuple(int(s) for s in out[gi]) == gen.perm.symbols

    def test_in_sorted(self):
        ref = np.array([2, 5, 9], dtype=np.uint64)
        values = np.array([1, 2, 5, 8, 9, 10], dtype=np.uint64)
        assert in_sorted(values, ref).tolist() == [
            False, True, True, False, True, False,
        ]


class TestSpill:
    def test_cleanup_on_success(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
        ).run()
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert result.spill_segments >= 3
        assert result.spilled_bytes > 0
        assert not run_dir.exists()

    def test_keep_run_dir_on_request(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        run_dir = tmp_path / "run"
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            cleanup=False,
        ).run()
        assert result.run_dir == str(run_dir)
        journal = json.loads((run_dir / "journal.json").read_text())
        assert journal["complete"] is True
        assert journal["graph_digest"] == store_digest(net)

    def test_crash_keeps_dir_resume_finishes(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"

        class Boom(RuntimeError):
            pass

        def explode(depth, _size):
            if depth == 3:
                raise Boom()

        with pytest.raises(Boom):
            FrontierBFS(
                net, memory_budget_bytes=16_384, spill_dir=run_dir,
                on_layer=explode,
            ).run()
        assert run_dir.exists()  # kept for --resume
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            resume=True,
        ).run()
        assert result.resumed_from == 3
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not run_dir.exists()

    @pytest.mark.parametrize("family", ["MS", "MR"])
    def test_window_crash_resume(self, family, tmp_path, dedup_maps):
        # below the map line: resume rebuilds the sorted-key window
        # (prev/cur for MS, the whole ring for the directed MR)
        net = make_network(family, l=2, n=3)
        budget = map_budget(net.k) - 1
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 3:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            FrontierBFS(
                net, memory_budget_bytes=budget, spill_dir=run_dir,
                on_layer=stop,
            ).run()
        result = FrontierBFS(
            net, memory_budget_bytes=budget, spill_dir=run_dir,
            resume=True,
        ).run()
        assert dedup_maps and not any(dedup_maps)
        assert result.resumed_from == 3
        assert result.spill_segments > len(result.layer_sizes)
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not run_dir.exists()

    def test_resume_ignores_unknown_layer_files(self, tmp_path):
        """Older journals listed a second, per-layer list of files (the
        first-hop tags, ``layer_####_####_tags.npy``).  Such a journal
        still resumes: the key is ignored and its files are pruned."""
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 3:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            FrontierBFS(
                net, memory_budget_bytes=16_384, spill_dir=run_dir,
                on_layer=stop,
            ).run()
        journal_path = run_dir / "journal.json"
        journal = json.loads(journal_path.read_text())
        for entry in journal["layers"]:
            entry["tag_files"] = [
                name.replace(".npy", "_tags.npy")
                for name in entry["segments"]
            ]
            for name in entry["tag_files"]:
                np.save(run_dir / name, np.zeros(1, dtype=np.uint8))
        journal_path.write_text(json.dumps(journal))
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            resume=True, cleanup=False,
        ).run()
        assert result.resumed_from == 3
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not list(run_dir.glob("*_tags.npy"))

    def test_resume_of_completed_run_raises(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        run_dir = tmp_path / "run"
        FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            cleanup=False,
        ).run()
        with pytest.raises(SpillError, match="completed"):
            FrontierBFS(
                net, memory_budget_bytes=16_384, spill_dir=run_dir,
                resume=True,
            ).run()

    def test_resume_rejects_other_graph(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        other = make_network("MIS", l=2, n=2)
        run_dir = tmp_path / "run"
        run = FrontierRunDir.create(run_dir, store_digest(net))
        run.abandon()
        with pytest.raises(SpillError, match="another graph"):
            FrontierBFS(other, spill_dir=run_dir, resume=True).run()

    def test_resume_prunes_orphan_segments(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 2:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            FrontierBFS(
                net, memory_budget_bytes=16_384, spill_dir=run_dir,
                on_layer=stop,
            ).run()
        # a half-written segment from the crashed layer
        orphan = run_dir / "layer_0003_0000.npy"
        orphan.write_bytes(b"partial garbage")
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            resume=True,
        ).run()
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not orphan.exists()

    def test_sigkill_mid_layer_then_resume(self, tmp_path):
        """A SIGKILL (no atexit, no cleanup) mid-layer leaves the run
        dir with journaled layers plus half-written junk; resume must
        prune the junk and complete with the exact compiled profile."""
        run_dir = tmp_path / "run"
        child = textwrap.dedent(f"""
            import os, signal
            import numpy as np
            from repro.frontier import FrontierBFS
            from repro.networks import make_network

            net = make_network("MS", l=2, n=3)
            run_dir = {str(run_dir)!r}

            def kill_mid_layer(depth, size):
                if depth == 3:
                    # fake the in-flight next layer: segments written,
                    # journal not yet updated — then die uncleanly
                    np.save(os.path.join(run_dir, "layer_0004_0000.npy"),
                            np.zeros((4, 7), dtype=np.uint8))
                    os.kill(os.getpid(), signal.SIGKILL)

            FrontierBFS(net, memory_budget_bytes=16_384,
                        spill_dir=run_dir,
                        on_layer=kill_mid_layer).run()
        """)
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert (run_dir / "journal.json").exists()
        assert (run_dir / "layer_0004_0000.npy").exists()

        net = make_network("MS", l=2, n=3)
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            resume=True,
        ).run()
        assert result.resumed_from == 3
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not run_dir.exists()


class TestCapacityGuard:
    def test_budget_is_checked_before_allocation(self, monkeypatch):
        import repro.core.compiled as compiled_mod

        net = make_network("MS", l=2, n=2)
        assert net.can_compile()
        monkeypatch.setattr(compiled_mod, "COMPILE_BUDGET_BYTES", 1_000)
        assert not net.can_compile()
        with pytest.raises(CompileBudgetError, match="frontier"):
            CompiledGraph(net)

    def test_estimate_scales_with_k_and_degree(self):
        assert estimate_table_bytes(8, 7) < estimate_table_bytes(9, 7)
        assert estimate_table_bytes(8, 7) < estimate_table_bytes(8, 9)
        # k=10 is firmly beyond the default budget
        from repro.core.compiled import COMPILE_BUDGET_BYTES

        assert estimate_table_bytes(10, 9) > COMPILE_BUDGET_BYTES

    def test_frontier_handles_guarded_instance(self, monkeypatch):
        import repro.core.compiled as compiled_mod

        net = make_network("MS", l=2, n=2)
        monkeypatch.setattr(compiled_mod, "COMPILE_BUDGET_BYTES", 1_000)
        # the error message's suggestion actually works
        result = frontier_profile(net, memory_budget_bytes=1 << 18)
        assert result.num_states == net.num_nodes
        # and network_profile auto-falls-back to the frontier path
        row = network_profile(net)
        assert row["method"] == "frontier"
        assert row["diameter"] == result.diameter


class TestDirectedRing:
    """Visited-ring correctness at the ring boundary.

    Directed families keep a ring of *all* visited layers' keys.  The
    sharpest boundary case is a pure directed cycle: the single
    generator σ (one cyclic rotation) revisits the identity exactly at
    ``depth == ring length`` — only the depth-0 entry of the full ring
    rejects that wrap-around, so an engine that dropped or windowed old
    layers would emit a spurious extra layer (or never terminate)."""

    @staticmethod
    def _cycle_graph(k: int):
        from repro.core.cayley import CayleyGraph
        from repro.core.generators import Generator, GeneratorSet

        sigma = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
        gen = Generator(
            name="R", perm=sigma, kind="rotation", index=(1,),
            is_nucleus=False,
        )
        return CayleyGraph(GeneratorSet([gen]), name=f"Cycle({k})")

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_single_engine_wraps_exactly_at_boundary(self, k):
        graph = self._cycle_graph(k)
        assert not graph.is_undirectable()
        result = frontier_profile(graph, memory_budget_bytes=1 << 16)
        # k singleton layers, then the wrap to identity is rejected by
        # the oldest ring entry: diameter k-1, no layer k
        assert result.layer_sizes == [1] * k
        assert result.diameter == k - 1
        assert result.num_states == k

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_visited_map_and_window_agree(self, k, dedup_maps):
        result = assert_map_matches_window(self._cycle_graph(k), dedup_maps)
        assert result.layer_sizes == [1] * k

    @pytest.mark.parametrize("k", [4, 6])
    def test_boundary_depth_with_spill(self, k, tmp_path):
        # the ring rebuild after spill/restore must include layer 0
        graph = self._cycle_graph(k)
        result = FrontierBFS(
            graph, memory_budget_bytes=1 << 16,
            spill_dir=tmp_path / "run",
        ).run()
        assert result.layer_sizes == [1] * k


class TestSweep:
    def test_frontier_sweep_rows(self, tmp_path):
        from repro.experiments import frontier_sweep

        rows = list(frontier_sweep(
            instances=(("MS", 2, 2), ("MR", 2, 2)),
            memory_budget_bytes=1 << 18,
            spill_dir=str(tmp_path),
        ))
        assert [r.network for r in rows] == ["MS(2,2)", "MR(2,2)"]
        for row in rows:
            net = make_network(
                row.network.split("(")[0],
                l=2, n=2,
            )
            assert row.layer_sizes == tuple(
                compiled_profile(net.compiled())
            )
            assert row.explored_all
            assert row.avg_distance == pytest.approx(
                net.compiled().average_distance()
            )
        # sweep run dirs cleaned on success
        assert list(tmp_path.iterdir()) == []

    def test_resumed_sweep_reruns_finished_instances(self, tmp_path):
        """A sweep that crashed in its second instance resumes that one
        from its journal and reruns the first, whose run dir it removed
        on success, from scratch."""
        from repro.experiments import frontier_sweep

        crashed = make_network("MS", l=2, n=3)

        def stop(depth, _size):
            if depth == 3:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            FrontierBFS(
                crashed, memory_budget_bytes=1 << 14,
                spill_dir=tmp_path / "MS_2_3", on_layer=stop,
            ).run()
        rows = list(frontier_sweep(
            instances=(("MS", 2, 2), ("MS", 2, 3)),
            memory_budget_bytes=1 << 14,
            spill_dir=str(tmp_path),
            resume=True,
        ))
        assert [r.network for r in rows] == ["MS(2,2)", "MS(2,3)"]
        assert [r.resumed_from for r in rows] == [None, 3]
        for row, net in zip(rows, (make_network("MS", l=2, n=2), crashed)):
            assert row.layer_sizes == tuple(
                compiled_profile(net.compiled())
            )
        assert list(tmp_path.iterdir()) == []
