"""Shared table stores: one host copy, many read-only views.

Three layers of guarantees:

* **store correctness** — create/attach round-trips of the one store
  file, in ``/dev/shm`` and under a cache directory, are
  byte-identical, corrupt stores are refused and replaced, and the
  rename publish means an attacher never sees a half-written store
  (a killed creator's temp file is swept by the next one);
* **serving equivalence** — a store-attached engine answers
  distance/route/neighbors/embedding *byte-identically* to a private
  in-process compile on all ten families;
* **lifecycle hygiene** — whoever creates a ``/dev/shm`` store (a
  "segment") owns the unlink, ownership survives worker crashes (cold
  workers ship segment names to the pool parent), an attacher's exit
  never removes the store, and neither a killed attacher, a crashed
  worker, nor a hard pool stop leaves anything in ``/dev/shm``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import tablestore
from repro.core.compiled import CompiledGraph
from repro.io import attach_compiled_tables, release_compiled_tables
from repro.networks import make_network
from repro.serve.engine import QueryEngine
from repro.serve.shard import ShardPool

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


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this module must leave ``/dev/shm`` as it found
    it — the module-level version of the CI smoke gate."""
    before = set(tablestore.list_host_segments())
    yield
    release_compiled_tables()
    after = set(tablestore.list_host_segments())
    assert after <= before, f"leaked segments: {sorted(after - before)}"


def _spec(family, kwargs):
    return {"family": family, **kwargs}


# ----------------------------------------------------------------------
# Store round-trips
# ----------------------------------------------------------------------


def _read_manifest(path):
    data = path.read_bytes()
    length = int.from_bytes(data[:tablestore._HEADER], "little")
    return json.loads(data[tablestore._HEADER:tablestore._HEADER + length])


class TestSegmentStore:
    """The store in the shared root (``/dev/shm``), one file per family."""

    def test_round_trip_is_byte_identical(self):
        net = make_network("MS", l=2, n=2)
        reference = CompiledGraph(net)
        handle = tablestore.create_store(net)
        try:
            assert handle.path == tablestore.store_path(net)
            assert handle.path.is_file()
            other = make_network("MS", l=2, n=2)
            attached = tablestore.attach_store(other)
            views = attached.arrays
            for name in tablestore.TABLE_ARRAYS:
                expected = getattr(reference, name)
                assert views[name].dtype == expected.dtype
                assert np.array_equal(views[name], expected), name
                assert not views[name].flags.writeable
        finally:
            tablestore.unlink_segment(handle.name)

    def test_segment_name_is_deterministic(self):
        a = make_network("MS", l=2, n=2)
        b = make_network("MS", l=2, n=2)
        c = make_network("RS", l=2, n=2)
        assert tablestore.segment_name(a) == tablestore.segment_name(b)
        assert tablestore.segment_name(a) != tablestore.segment_name(c)
        assert tablestore.segment_name(a).startswith(
            tablestore.SEGMENT_PREFIX
        )

    def test_attach_missing_raises_missing(self):
        net = make_network("MS", l=2, n=2)
        with pytest.raises(tablestore.TableStoreMissing):
            tablestore.attach_store(net)

    def test_attach_refuses_wrong_graph(self):
        net = make_network("MS", l=2, n=2)
        other = make_network("RS", l=2, n=2)
        handle = tablestore.create_store(net)
        try:
            os.replace(handle.path, tablestore.store_path(other))
            with pytest.raises(tablestore.TableStoreError, match="mismatch"):
                tablestore.attach_store(other)
        finally:
            tablestore.unlink_segment(tablestore.segment_name(other))

    def test_corrupt_payload_fails_checksum(self):
        net = make_network("MS", l=2, n=2)
        handle = tablestore.create_store(net)
        try:
            # locate a real array byte via the manifest (the tail of
            # the file is alignment padding)
            manifest = _read_manifest(handle.path)
            offset = manifest["arrays"]["distances"]["offset"]
            with open(handle.path, "r+b") as fh:
                fh.seek(offset + 1)
                byte = fh.read(1)[0]
                fh.seek(offset + 1)
                fh.write(bytes([byte ^ 0xFF]))
            other = make_network("MS", l=2, n=2)
            with pytest.raises(tablestore.TableStoreError, match="checksum"):
                tablestore.attach_store(other)
        finally:
            tablestore.unlink_segment(handle.name)

    def test_dead_creators_temp_file_is_swept(self):
        """A creator killed mid-write leaves only its temp file, which
        is never attached: the next acquire creates the store and
        removes the debris, and the one after attaches."""
        net = make_network("MS", l=2, n=2)
        final = tablestore.store_path(net)
        debris = final.with_name(f".{final.name}.tmp999999")
        debris.write_bytes(bytes(tablestore._HEADER) + b"half a write")
        try:
            modes = [
                attach_compiled_tables(make_network("MS", l=2, n=2))[1]
                for _ in range(2)
            ]
            assert modes == ["create", "attach"]
            assert not debris.exists()
        finally:
            debris.unlink(missing_ok=True)

    def test_unlink_is_idempotent(self):
        net = make_network("MS", l=2, n=2)
        handle = tablestore.create_store(net)
        assert tablestore.unlink_segment(handle.name) is True
        assert tablestore.unlink_segment(handle.name) is False


class TestDirStore:
    """The store under a ``--table-cache`` directory."""

    def test_round_trip_via_mmap(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        reference = CompiledGraph(net)
        tablestore.create_store(net, tmp_path)
        attached = tablestore.attach_store(
            make_network("MS", l=2, n=2), tmp_path
        )
        assert os.listdir(tmp_path) == ["MS(2,2).tables"]
        for name in tablestore.TABLE_ARRAYS:
            view = attached.arrays[name]
            assert np.array_equal(view, getattr(reference, name)), name
            assert not view.flags.writeable

    def test_missing_and_corrupt(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        with pytest.raises(tablestore.TableStoreMissing):
            tablestore.attach_store(net, tmp_path)
        tablestore.create_store(net, tmp_path)
        tablestore.store_path(net, tmp_path).write_text("{not json")
        with pytest.raises(tablestore.TableStoreError):
            tablestore.attach_store(net, tmp_path)

    def test_attach_lifecycle_replaces_corrupt_store(self, tmp_path):
        net = make_network("MS", l=2, n=2)
        tablestore.create_store(net, tmp_path)
        tablestore.store_path(net, tmp_path).write_text("{not json")
        compiled, mode = attach_compiled_tables(
            make_network("MS", l=2, n=2), cache_dir=tmp_path
        )
        assert mode == "create"
        assert compiled.attached
        _, mode2 = attach_compiled_tables(
            make_network("MS", l=2, n=2), cache_dir=tmp_path
        )
        assert mode2 == "attach"

    @pytest.mark.parametrize("damage", [
        "garbage", "truncated", "bit-flip", "future-format", "foreign",
        "old-directory",
    ])
    def test_corrupt_store_is_replaced(self, tmp_path, damage):
        """Every way a store on disk can be wrong is caught on attach:
        the store is written again, and the next attach trusts it."""
        net = make_network("IS", k=4)
        tablestore.create_store(net, tmp_path)
        store = tablestore.store_path(net, tmp_path)
        manifest = _read_manifest(store)
        if damage == "garbage":
            store.write_bytes(b"not a store")
        elif damage == "truncated":
            data = store.read_bytes()
            store.write_bytes(data[:len(data) // 2])
        elif damage == "bit-flip":
            # one bit in the middle of the distances array
            entry = manifest["arrays"]["distances"]
            data = bytearray(store.read_bytes())
            data[entry["offset"] + entry["nbytes"] // 2] ^= 1
            store.write_bytes(bytes(data))
        elif damage == "future-format":
            data = store.read_bytes()
            store.write_bytes(data.replace(
                b'"store_format": 1', b'"store_format": 9', 1
            ))
        elif damage == "foreign":  # another k = 4 network's store
            other = make_network("MS", l=3, n=1)
            tablestore.create_store(other, tmp_path)
            os.replace(tablestore.store_path(other, tmp_path), store)
        else:  # the .npy directory a store was before it was one file
            store.unlink()
            store.mkdir()
            arrays = tablestore.table_arrays(CompiledGraph(net))
            for name, arr in arrays.items():
                np.save(store / f"{name}.npy", arr)
            (store / "manifest.json").write_text(json.dumps(manifest))
        _, mode = attach_compiled_tables(
            make_network("IS", k=4), cache_dir=tmp_path
        )
        assert mode == "create"
        compiled, mode = attach_compiled_tables(
            make_network("IS", k=4), cache_dir=tmp_path
        )
        assert mode == "attach"
        assert store.is_file()
        assert np.array_equal(
            compiled.distances, CompiledGraph(net).distances
        )


# ----------------------------------------------------------------------
# Cold-cache stampede
# ----------------------------------------------------------------------


def _race_cache(cache_dir, barrier, out):
    net = make_network("IS", k=4)
    barrier.wait()
    try:
        out.put(attach_compiled_tables(net, cache_dir=cache_dir)[1])
    except Exception as exc:  # pragma: no cover - failure detail
        out.put(f"error: {type(exc).__name__}: {exc}")


class TestStampede:
    def test_cold_miss_compiles_once(self, tmp_path):
        """Four processes racing a cold cache: exactly one compiles
        and creates the store, the other three block on the host lock
        and attach the store it published.  The creator also sweeps
        the temp file a creator killed mid-write left behind, so the
        cache ends up holding the store alone."""
        stale = tmp_path / ".IS(4).tables.tmp999999"
        stale.write_bytes(b"half a write")
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(4)
        out = ctx.Queue()
        workers = [
            ctx.Process(
                target=_race_cache, args=(str(tmp_path), barrier, out)
            )
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        statuses = sorted(out.get(timeout=60) for _ in workers)
        for w in workers:
            w.join(timeout=60)
        assert statuses == ["attach", "attach", "attach", "create"], statuses
        assert os.listdir(tmp_path) == ["IS(4).tables"]


# ----------------------------------------------------------------------
# Serving equivalence: attached vs private, all ten families
# ----------------------------------------------------------------------


def _probe_requests(net, spec):
    compiled = net.compiled()
    labels = compiled.labels
    rng = np.random.default_rng(7)
    ids = rng.integers(0, net.num_nodes, size=8)
    nodes = [
        "".join(str(int(s)) for s in labels[i]) for i in ids
    ]
    pairs = list(zip(nodes[:4], nodes[4:]))
    return [
        {"op": "distance", "network": spec, "pairs": pairs},
        {"op": "route", "network": spec, "pairs": pairs[:2]},
        {"op": "route", "network": spec, "target": nodes[0],
         "sources": nodes[1:4]},
        {"op": "neighbors", "network": spec, "nodes": nodes[:3]},
        {"op": "embedding", "network": spec, "guest": "star",
         "nodes": nodes[:2]},
        {"op": "properties", "network": spec},
    ]


class TestServingEquivalence:
    @pytest.mark.parametrize(
        "family,kwargs", ALL_FAMILIES, ids=[f for f, _ in ALL_FAMILIES]
    )
    def test_attached_engine_is_byte_identical(self, family, kwargs):
        spec = _spec(family, kwargs)
        requests = _probe_requests(make_network(family, **kwargs), spec)

        private = QueryEngine()
        expected = [private.execute(dict(r)) for r in requests]

        shared = QueryEngine(shared_tables=True)
        try:
            got = [shared.execute(dict(r)) for r in requests]
            net = shared.network(spec)
            assert net.compiled().attached
            nbytes = net.compiled().table_nbytes()
            assert nbytes["shared"] > 0 and nbytes["private"] == 0
        finally:
            release_compiled_tables()
        assert got == expected

    def test_attached_engine_via_dir_store(self, tmp_path):
        spec = _spec("MS", {"l": 2, "n": 2})
        requests = _probe_requests(make_network("MS", l=2, n=2), spec)
        private = QueryEngine()
        expected = [private.execute(dict(r)) for r in requests]
        shared = QueryEngine(table_cache=str(tmp_path), shared_tables=True)
        got = [shared.execute(dict(r)) for r in requests]
        assert got == expected
        assert shared.network(spec).compiled().attached
        # the on-disk store is reusable by a second engine, and no
        # store appears in the shared root
        again = QueryEngine(table_cache=str(tmp_path), shared_tables=True)
        assert [again.execute(dict(r)) for r in requests] == expected

    def test_attach_counter_and_table_bytes(self):
        from repro.obs import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        set_registry(registry)
        try:
            spec = _spec("MS", {"l": 2, "n": 2})
            creator = QueryEngine(shared_tables=True)
            creator.execute({"op": "properties", "network": spec})
            attacher = QueryEngine(shared_tables=True)
            attacher.execute({"op": "properties", "network": spec})
            snapshot = registry.snapshot()
            modes = {
                row["labels"].get("mode"): row["value"]
                for row in snapshot["counters"]["serve.table_attach"]
            }
            assert modes == {"create": 1, "attach": 1}
            stats = attacher.cache_stats()
            assert stats["table_bytes"]["shared"] > 0
            assert stats["table_bytes"]["private"] == 0
        finally:
            set_registry(MetricsRegistry())
            release_compiled_tables()


# ----------------------------------------------------------------------
# Fallback
# ----------------------------------------------------------------------


class TestFallback:
    def test_store_failure_degrades_to_private_compile(self, monkeypatch):
        net = make_network("MS", l=2, n=2)

        def boom(*_a, **_k):
            raise tablestore.TableStoreError("no shared memory here")

        monkeypatch.setattr(tablestore, "attach_store", boom)
        monkeypatch.setattr(tablestore, "create_store", boom)
        compiled, mode = attach_compiled_tables(net)
        assert mode == "fallback"
        assert not compiled.attached
        assert compiled.distance(net.identity, net.identity) == 0

    def test_unusable_cache_path_falls_back(self, tmp_path):
        """A cache path under a regular file cannot hold a store: the
        tables are compiled privately instead, and the engine still
        answers."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = blocker / "tables"
        spec = _spec("MS", {"l": 2, "n": 2})
        compiled, mode = attach_compiled_tables(
            make_network("MS", l=2, n=2), cache_dir=cache
        )
        assert mode == "fallback"
        assert not compiled.attached
        fresh = CompiledGraph(make_network("MS", l=2, n=2))
        assert compiled.diameter() == fresh.diameter()
        engine = QueryEngine(table_cache=str(cache), shared_tables=True)
        assert engine.execute({"op": "properties", "network": spec})["ok"]


# ----------------------------------------------------------------------
# Crash hygiene: killed attachers, crashed workers, hard pool stops
# ----------------------------------------------------------------------


def _attach_and_hang(ready):
    net = make_network("MS", l=2, n=2)
    attach_compiled_tables(net)
    ready.set()
    time.sleep(60)  # killed long before this returns


class TestCrashHygiene:
    def test_killed_attacher_leaves_owner_segment_intact(self):
        """SIGKILL an attached reader mid-flight: the creator's segment
        survives (readers never own the unlink) and release still
        works."""
        net = make_network("MS", l=2, n=2)
        handle = tablestore.create_store(net)
        try:
            ctx = multiprocessing.get_context()
            ready = ctx.Event()
            proc = ctx.Process(target=_attach_and_hang, args=(ready,))
            proc.start()
            assert ready.wait(timeout=30)
            os.kill(proc.pid, 9)
            proc.join(timeout=30)
            assert handle.name in tablestore.list_host_segments()
            # still attachable after the reader died mid-use
            attached = tablestore.attach_store(
                make_network("MS", l=2, n=2)
            )
            assert np.array_equal(
                attached.arrays["distances"],
                CompiledGraph(net).distances,
            )
        finally:
            tablestore.unlink_segment(handle.name)
        assert handle.name not in tablestore.list_host_segments()

    def test_independent_attacher_exit_keeps_the_store(self):
        """Processes that are not forks of the creator attach and exit
        one after the other: the store outlives each of them, so the
        second one attaches too instead of creating it again."""
        _, mode = attach_compiled_tables(make_network("MS", l=2, n=2))
        assert mode == "create"
        name = tablestore.segment_name(make_network("MS", l=2, n=2))
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "from repro.io import attach_compiled_tables\n"
            "from repro.networks import make_network\n"
            "print(attach_compiled_tables("
            "make_network('MS', l=2, n=2))[1])\n"
        )
        modes = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            modes.append(done.stdout.strip())
        assert modes == ["attach", "attach"]
        assert name in tablestore.list_host_segments()

    def test_worker_crash_does_not_leak_segments(self):
        """A cold worker creates the segment, ships its name up, then
        dies hard; the pool parent still owns — and performs — the
        unlink at close."""
        spec = _spec("MS", {"l": 2, "n": 2})
        pool = ShardPool(num_shards=2, shared_tables=True)
        with pool:
            responses = pool.execute_many([
                {"op": "properties", "network": spec},
                {"op": "_crash", "network": spec, "delay": 0.1},
            ])
            assert responses[0]["ok"]
            assert pool._owned_segments, \
                "worker-created segment never shipped to the parent"
            pool.drain()
        assert pool.stats()["closed"]
        assert not tablestore.list_host_segments()

    def test_hard_pool_stop_unlinks_parent_owned_segments(self):
        """Terminate workers without a graceful STOP: close() still
        releases every parent-owned segment."""
        spec = _spec("MS", {"l": 2, "n": 2})
        pool = ShardPool(num_shards=2, shared_tables=True)
        modes = pool.prepare_shared_tables([spec])
        assert list(modes.values()) == ["create"]
        pool.start()
        pool.execute_many([{"op": "properties", "network": spec}])
        for worker in pool._workers:
            worker.terminate()  # hard stop, no STOP sentinel
        pool.close()
        assert not tablestore.list_host_segments()

    def test_prewarmed_pool_workers_attach_not_create(self, tmp_path):
        """After prepare_shared_tables, worker warm-up is pure attach:
        no new segments appear beyond the parent's one."""
        spec = _spec("MS", {"l": 2, "n": 2})
        pool = ShardPool(num_shards=4, shared_tables=True)
        pool.prepare_shared_tables([spec])
        assert len(tablestore.list_host_segments()) == 1
        with pool:
            out = pool.execute_many(
                [{"op": "properties", "network": spec}] * 4
            )
            assert all(r["ok"] for r in out)
            assert len(tablestore.list_host_segments()) == 1
        assert not tablestore.list_host_segments()

    def test_cache_pool_prebuilds_its_store(self, tmp_path):
        """A pool given only a table cache builds each family's store
        once, in the parent; its workers attach it, and the parent owns
        nothing to unlink."""
        spec = _spec("MS", {"l": 2, "n": 2})
        pool = ShardPool(num_shards=2, table_cache=str(tmp_path))
        assert pool.prepare_shared_tables([spec]) == {"MS(2,2)": "create"}
        assert os.listdir(tmp_path) == ["MS(2,2).tables"]
        assert not pool._owned_segments
        with pool:
            out = pool.execute_many([{"op": "properties", "network": spec}])
            assert out[0]["ok"]
        assert os.listdir(tmp_path) == ["MS(2,2).tables"]
        assert not tablestore.list_host_segments()
