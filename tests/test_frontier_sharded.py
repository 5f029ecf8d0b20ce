"""Differential tests for the sharded (owner-computes) frontier BFS.

The sharded engine promises the *same layer profile* as the
single-process frontier engine — which itself matches the compiled
whole-frontier BFS — while splitting the key space, the dedup window
and the memory budget across worker processes.  These tests hold it to
that promise on all ten families, pin down the ownership function,
close the exchange books, and exercise the failure paths: a killed
worker must fail fast with :class:`ShardWorkerDied`, and a SIGKILLed
*coordinator* must leave per-shard run dirs that resume to the exact
profile with no stray segments.
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

from repro.analysis import network_profile
from repro.frontier import (
    FrontierBFS,
    ShardedFrontierBFS,
    ShardWorkerDied,
    SpillError,
    frontier_profile,
    log2_ceil,
    owner_of,
    partition_by_owner,
    sharded_frontier_profile,
)
from repro.frontier.sharded import slab_segment_names
from repro.networks import make_network

#: all ten families at sizes small enough to BFS three ways per test
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


def compiled_profile(compiled):
    starts = compiled.layer_starts
    return [int(starts[i + 1] - starts[i])
            for i in range(compiled.num_layers())]


class TestPartition:
    """The ownership function: pure, fixed, balanced."""

    def test_log2_ceil(self):
        assert [log2_ceil(n) for n in (0, 1, 2, 3, 4, 5, 8, 9)] == \
            [0, 0, 1, 2, 2, 3, 3, 4]

    def test_owner_is_pure_and_in_range(self):
        keys = np.random.default_rng(7).integers(
            0, 2 ** 63, size=10_000, dtype=np.uint64
        )
        for w in (1, 2, 3, 4, 5, 8):
            owners = owner_of(keys, w)
            assert owners.min() >= 0 and owners.max() < w
            # pure function of the key: recomputing agrees
            assert np.array_equal(owners, owner_of(keys, w))

    def test_w1_maps_everything_to_zero(self):
        keys = np.arange(100, dtype=np.uint64)
        assert not owner_of(keys, 1).any()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            owner_of(np.arange(4, dtype=np.uint64), 0)

    def test_balanced_on_dense_keys(self):
        # bit-packed keys are dense in the low bits — the very case a
        # naive `key % W` would shear onto one worker
        keys = np.arange(100_000, dtype=np.uint64)
        for w in (2, 3, 4):
            counts = np.bincount(owner_of(keys, w), minlength=w)
            assert counts.min() > (keys.size // w) * 0.4

    def test_partition_buckets_complete_and_stable(self):
        keys = np.random.default_rng(3).integers(
            0, 2 ** 63, size=5_000, dtype=np.uint64
        )
        buckets, owners = partition_by_owner(keys, 3)
        all_rows = np.concatenate(buckets)
        assert sorted(all_rows.tolist()) == list(range(keys.size))
        for w, idx in enumerate(buckets):
            assert (owners[idx] == w).all()
            # stable: original relative order preserved per bucket
            assert (np.diff(idx) > 0).all() if idx.size > 1 else True


class TestDifferentialSharded:
    """Sharded vs. compiled profiles, all ten families."""

    def test_profile_identical_to_compiled(self, net):
        ref = compiled_profile(net.compiled())
        result = sharded_frontier_profile(
            net, workers=3, memory_budget_bytes=3 << 18,
        )
        assert result.layer_sizes == ref
        assert result.num_states == net.num_nodes
        assert result.workers == 3
        assert result.exchange["closed"]

    def test_worker_counts_do_not_change_profiles(self):
        net = make_network("MS", l=2, n=3)
        ref = frontier_profile(net, memory_budget_bytes=1 << 18)
        for w in (1, 2, 4):
            result = sharded_frontier_profile(
                net, workers=w, memory_budget_bytes=w << 18,
            )
            assert result.layer_sizes == ref.layer_sizes

    def test_exchange_books_close(self):
        net = make_network("MS", l=2, n=3)
        result = sharded_frontier_profile(
            net, workers=3, memory_budget_bytes=3 << 18,
        )
        ex = result.exchange
        assert ex["sent_rows"] == ex["received_rows"]
        assert ex["received_rows"] == ex["deduped_in"] + ex["discarded"]
        # every non-identity state was deduped-in exactly once
        assert ex["deduped_in"] == result.num_states - 1
        # every candidate the expansion generated entered the exchange
        assert ex["sent_rows"] == result.candidates

    def test_slab_path_equivalent_to_pipe_path(self):
        net = make_network("MS", l=2, n=3)
        ref = frontier_profile(net, memory_budget_bytes=1 << 18)
        result = sharded_frontier_profile(
            net, workers=3, memory_budget_bytes=3 << 18,
            slab_threshold=64,  # force ~everything through slabs
        )
        assert result.layer_sizes == ref.layer_sizes
        assert result.exchange["slab_chunks"] > 0
        # every slab segment was consumed or swept
        assert slab_segment_names(str(os.getpid())) == []

    def test_spill_mode_profile_and_shard_contents(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        ref = frontier_profile(net, memory_budget_bytes=1 << 18)
        run_dir = tmp_path / "run"
        result = ShardedFrontierBFS(
            net, workers=3, memory_budget_bytes=48 << 10,
            spill_dir=run_dir, cleanup=False,
        ).run()
        assert result.layer_sizes == ref.layer_sizes
        assert result.run_dir == str(run_dir)
        # per-layer shard journals sum to the global profile, and the
        # kept segments really hold that many states
        for depth, width in enumerate(ref.layer_sizes):
            total = 0
            for i in range(3):
                journal = json.loads(
                    (run_dir / f"shard-{i}" / "journal.json").read_text()
                )
                entry = journal["layers"][depth]
                seg_rows = sum(
                    np.load(run_dir / f"shard-{i}" / name).shape[0]
                    for name in entry["segments"]
                )
                assert seg_rows == entry["size"]
                total += entry["size"]
            assert total == width

    def test_network_profile_sharded_method(self, net):
        compiled_row = network_profile(net, method="compiled")
        sharded_row = network_profile(
            net, method="sharded", workers=2,
            memory_budget_bytes=2 << 18,
        )
        assert sharded_row["method"] == "sharded"
        assert sharded_row["workers"] == 2
        assert sharded_row["diameter"] == compiled_row["diameter"]
        assert sharded_row["avg_distance"] == compiled_row["avg_distance"]

    def test_frontier_sweep_workers_plumbing(self, tmp_path):
        from repro.experiments import frontier_sweep

        rows = list(frontier_sweep(
            instances=(("MS", 2, 2), ("MR", 2, 2)),
            memory_budget_bytes=1 << 18,
            spill_dir=str(tmp_path),
            workers=2,
        ))
        assert [r.workers for r in rows] == [2, 2]
        for row in rows:
            ref = make_network(
                row.network.split("(")[0], l=2, n=2,
            )
            assert row.layer_sizes == tuple(
                compiled_profile(ref.compiled())
            )
        assert list(tmp_path.iterdir()) == []


class TestSeedRegression:
    """Satellite 1: one explicit seed, threaded coordinator→worker, so
    hash-keyed (k > 20) families profile identically under both
    engines.  The hash path is forced at small k by shrinking the
    exact-key ceiling — fork-started workers inherit the patch."""

    @pytest.mark.parametrize("family", ["MS", "MR"])
    def test_hash_keyed_profiles_agree_across_engines(
        self, monkeypatch, family
    ):
        import repro.frontier.encoding as encoding

        monkeypatch.setattr(encoding, "MAX_EXACT_KEY_K", 0)
        net = make_network(family, l=2, n=3)
        ref = compiled_profile(net.compiled())
        for seed in (0, 20260807):
            single = FrontierBFS(
                net, memory_budget_bytes=1 << 18, key_seed=seed,
            ).run()
            sharded = ShardedFrontierBFS(
                net, workers=3, memory_budget_bytes=3 << 18,
                key_seed=seed,
            ).run()
            assert not single.exact_keys and not sharded.exact_keys
            assert single.layer_sizes == ref
            assert sharded.layer_sizes == single.layer_sizes

    def test_resume_rejects_different_seed(self, tmp_path, monkeypatch):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 2:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, key_seed=7, on_layer=stop,
            ).run()
        with pytest.raises(SpillError, match="key_seed"):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, key_seed=8, resume=True,
            ).run()

    def test_resume_rejects_different_worker_count(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 2:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, on_layer=stop,
            ).run()
        with pytest.raises(SpillError, match="workers"):
            ShardedFrontierBFS(
                net, workers=3, memory_budget_bytes=3 << 16,
                spill_dir=run_dir, resume=True,
            ).run()


class TestFailurePaths:
    def test_killed_worker_raises_not_hangs(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        engine = ShardedFrontierBFS(
            net, workers=3, memory_budget_bytes=3 << 16,
            spill_dir=tmp_path / "run",
        )

        def kill_one(depth, _size):
            if depth == 2:
                os.kill(engine.worker_pids[1], signal.SIGKILL)

        engine.on_layer = kill_one
        with pytest.raises(ShardWorkerDied, match="shard worker 1/3"):
            engine.run()
        # journaled layers stay for resume; no slab segments leak
        assert (tmp_path / "run" / "shard-0" / "journal.json").exists()
        assert slab_segment_names(str(os.getpid())) == []

    def test_worker_exception_is_reported(self):
        net = make_network("MS", l=2, n=2)
        engine = ShardedFrontierBFS(
            net, workers=2, memory_budget_bytes=2 << 16,
        )

        def die_at_depth_2(depth, _size):
            if depth == 2:
                os.kill(engine.worker_pids[0], signal.SIGTERM)

        engine.on_layer = die_at_depth_2
        with pytest.raises(ShardWorkerDied):
            engine.run()

    def test_resume_requires_metadata(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        with pytest.raises(SpillError, match="metadata"):
            ShardedFrontierBFS(
                net, workers=2, spill_dir=tmp_path / "nope",
                resume=True,
            ).run()

    def test_rejects_bad_worker_count(self):
        net = make_network("MS", l=2, n=2)
        with pytest.raises(ValueError, match="workers"):
            ShardedFrontierBFS(net, workers=0)


class TestCoordinatorKill:
    """Satellite 2: a SIGKILLed coordinator leaves prune-safe shard
    dirs — journaled layers only, no stray .npy segments — and the run
    resumes to the exact profile."""

    def test_sigkill_mid_layer_then_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        child = textwrap.dedent(f"""
            import os, signal
            from repro.frontier import ShardedFrontierBFS
            from repro.networks import make_network

            net = make_network("MS", l=2, n=3)
            engine = ShardedFrontierBFS(
                net, workers=3, memory_budget_bytes=3 << 16,
                spill_dir={str(run_dir)!r},
            )

            def kill_mid_run(depth, size):
                if depth == 4:
                    os.kill(os.getpid(), signal.SIGKILL)

            engine.on_layer = kill_mid_run
            engine.run()
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

        # every shard dir is prune-safe: nothing but the journal and
        # the segments it claims (workers noticed the dead coordinator
        # and scrubbed their own in-flight layer)
        for i in range(3):
            shard = run_dir / f"shard-{i}"
            journal = json.loads((shard / "journal.json").read_text())
            claimed = {"journal.json"}
            for entry in journal["layers"]:
                claimed.update(entry["segments"])
            on_disk = {p.name for p in shard.iterdir()}
            assert on_disk == claimed
            assert len(journal["layers"]) >= 1

        net = make_network("MS", l=2, n=3)
        result = ShardedFrontierBFS(
            net, workers=3, memory_budget_bytes=3 << 16,
            spill_dir=run_dir, resume=True,
        ).run()
        assert result.resumed_from is not None
        assert result.layer_sizes == compiled_profile(net.compiled())
        assert not run_dir.exists()

    def test_resume_of_completed_run_raises(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        run_dir = tmp_path / "run"
        ShardedFrontierBFS(
            net, workers=2, memory_budget_bytes=2 << 16,
            spill_dir=run_dir, cleanup=False,
        ).run()
        with pytest.raises(SpillError, match="completed"):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, resume=True,
            ).run()


class TestMetrics:
    def test_shard_metrics_recorded(self):
        from repro.obs import MetricsRegistry, use_registry

        net = make_network("MS", l=2, n=2)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = sharded_frontier_profile(
                net, workers=2, memory_budget_bytes=2 << 17,
            )
        snap = registry.snapshot()
        rows = {r["labels"].get("shard"): r["value"]
                for r in snap["counters"]["frontier.shard.rows"]}
        assert sum(rows.values()) == result.num_states - 1
        kinds = {r["labels"]["kind"]: r["value"]
                 for r in snap["counters"]["frontier.shard.exchange_rows"]}
        assert kinds["sent"] == kinds["received"]
        assert kinds["received"] == kinds["deduped_in"] + kinds["discarded"]
        workers_rows = snap["gauges"]["frontier.shard.workers"]
        assert workers_rows and workers_rows[0]["value"] == 2
        assert "frontier.shard.barrier_wait_seconds" in snap["histograms"]
