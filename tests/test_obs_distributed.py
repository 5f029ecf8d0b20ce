"""End-to-end distributed observability: wire-level trace propagation
across real process boundaries, cluster-wide metric aggregation, the
``repro top`` dashboard, and flight-recorder dumps.

The centerpiece asserts the PR's acceptance criterion: a sampled
request traced through router -> replica server -> shard worker
produces ONE merged trace tree whose span parentage crosses all three
process boundaries (the shard worker is a separate OS process; its
spans come home over the result queue).
"""

import json

import pytest

from repro.cli import main
from repro.cluster import ClusterManager
from repro.io import network_spec
from repro.networks import make_network
from repro.obs import (
    FLIGHT_DIR_ENV,
    MetricsRegistry,
    TraceCollector,
    get_span_buffer,
    parentage_path,
    reset_span_buffer,
    use_registry,
)
from repro.serve import (
    QueryEngine,
    ServerThread,
    make_workload,
    query_server,
    run_loadgen,
)

SPEC = {"family": "MS", "l": 2, "n": 2}

#: the canonical five-hop chain of a fully traced shard-backed request.
FULL_CHAIN = [
    "client.request",
    "router.route",
    "server.request",
    "shard.execute",
    "engine.execute",
]


def _workload(count=24, batch=4, seed=0):
    net = make_network("MS", l=2, n=2)
    return make_workload(
        "uniform", network_spec(net), k=net.k, count=count, seed=seed,
        batch=batch,
    )


class TestClusterTracePropagation:
    def test_trace_crosses_three_process_boundaries(self):
        self._check_full_chain(protocol="json")

    def test_binary_trace_crosses_three_process_boundaries(self):
        """Binary frames through the router carry the same chain: the
        router opens its hop span for them too."""
        self._check_full_chain(protocol="binary")

    @staticmethod
    def _check_full_chain(protocol):
        reset_span_buffer()
        with use_registry(MetricsRegistry()):
            with ClusterManager(
                replicas=3, warm_specs=(SPEC,), shards_per_replica=1,
            ) as cluster:
                result = run_loadgen(
                    cluster.host, cluster.port, _workload(),
                    trace_sample=1.0, protocol=protocol,
                )
            # cluster shutdown closes the shard pools, which pumps the
            # workers' last shipped span batches into this process
            collector = TraceCollector()
            collector.add_many(get_span_buffer().drain())
        assert result.closed and result.errors == 0
        assert result.traced == result.sent
        trees = collector.trees()
        assert len(trees) == result.sent  # one merged tree per request
        for tree in trees:
            assert tree["orphans"] == 0
            assert parentage_path(tree, "engine.execute") == FULL_CHAIN
            # the span chain crosses a real OS process boundary: the
            # shard worker's spans carry a different pid than the
            # client/router/server spans minted in this process
            assert len(tree["pids"]) == 2
            by_name = {}

            def walk(node):
                by_name[node["name"]] = node
                for child in node["children"]:
                    walk(child)

            for root in tree["roots"]:
                walk(root)
            assert by_name["shard.execute"]["pid"] \
                != by_name["client.request"]["pid"]
            assert by_name["engine.execute"]["pid"] \
                == by_name["shard.execute"]["pid"]
            # parentage is by span id, not by arrival order
            assert by_name["shard.execute"]["parent_span_id"] \
                == by_name["server.request"]["span_id"]
            assert all(node["ok"] for node in by_name.values())

    def test_unsampled_requests_emit_no_spans(self):
        reset_span_buffer()
        with ClusterManager(
            replicas=2, warm_specs=(SPEC,), shards_per_replica=1,
        ) as cluster:
            result = run_loadgen(cluster.host, cluster.port, _workload())
        assert result.closed
        assert result.traced == 0
        spans = [
            span for span in get_span_buffer().drain()
            if span.get("name") in FULL_CHAIN
        ]
        assert spans == []

    def test_partial_sampling_is_seeded(self):
        reset_span_buffer()
        engine = QueryEngine()
        with ServerThread(engine) as server:
            first = run_loadgen(
                server.host, server.port, _workload(count=80),
                trace_sample=0.25, trace_seed=5,
            )
            second = run_loadgen(
                server.host, server.port, _workload(count=80),
                trace_sample=0.25, trace_seed=5,
            )
        assert 0 < first.traced < first.sent
        assert first.traced == second.traced  # sampling is seeded
        reset_span_buffer()


class TestAdminOps:
    def test_server_stats_and_metrics_ops(self):
        with use_registry(MetricsRegistry()):
            engine = QueryEngine()
            with ServerThread(engine) as server:
                run_loadgen(server.host, server.port, _workload())
                stats, metrics = query_server(
                    server.host, server.port,
                    [{"op": "stats"}, {"op": "metrics"}],
                )
        assert stats["ok"] and stats["op"] == "stats"
        payload = stats["result"]
        assert payload["completed"] > 0
        assert payload["p50_ms"] is not None
        assert payload["cache"]["graphs"] >= 1
        assert metrics["ok"] and metrics["op"] == "metrics"
        snapshot = metrics["result"]
        assert any(
            row["value"] > 0
            for row in snapshot["counters"]["serve.requests"]
        )
        # 24 pairs / batch 4 = 6 data requests through the batch path
        # (admin ops are answered inline and don't observe latency)
        (lat_row,) = snapshot["histograms"]["serve.latency_ms"]
        assert lat_row["count"] == 6
        assert lat_row["p99"] is not None

    def test_sharded_server_stats_expose_worker_caches(self):
        import time

        from repro.serve import ShardPool

        with use_registry(MetricsRegistry()):
            pool = ShardPool(num_shards=1).start()
            try:
                with ServerThread(pool) as server:
                    # worker cache occupancy arrives with the next
                    # periodic metric ship (>= 0.25 s apart, after a
                    # request) — keep traffic flowing while polling
                    deadline = time.monotonic() + 10.0
                    cache = {}
                    while time.monotonic() < deadline:
                        run_loadgen(
                            server.host, server.port,
                            _workload(count=4, batch=4, seed=1),
                        )
                        (stats,) = query_server(
                            server.host, server.port, [{"op": "stats"}],
                        )
                        cache = stats["result"].get("cache", {})
                        if cache.get("graphs", 0) >= 1:
                            break
                        time.sleep(0.1)
            finally:
                pool.close()
        assert cache["graphs"] >= 1  # same key names as the engine's

    def test_router_metrics_aggregate_with_replica_labels(self):
        with use_registry(MetricsRegistry()):
            with ClusterManager(
                replicas=2, warm_specs=(SPEC,), shards_per_replica=1,
            ) as cluster:
                run_loadgen(cluster.host, cluster.port, _workload())
                (response,) = query_server(
                    cluster.host, cluster.port, [{"op": "metrics"}],
                )
        assert response["ok"]
        merged = response["result"]
        # shard-worker series come home labelled by replica AND shard
        shard_rows = merged["histograms"]["serve.shard_request_ms"]
        replicas = {row["labels"]["replica"] for row in shard_rows}
        assert replicas == {"replica-0", "replica-1"}
        assert all("shard" in row["labels"] for row in shard_rows)
        # the router's own registry rides along as replica="router"
        router_rows = [
            row for row in merged["counters"]["cluster.router.requests"]
            if row["labels"].get("replica") == "router"
        ]
        assert router_rows and router_rows[0]["value"] > 0

    def test_router_stats_include_latency_summary(self):
        with ClusterManager(replicas=2, warm_specs=(SPEC,)) as cluster:
            run_loadgen(cluster.host, cluster.port, _workload())
            (response,) = query_server(
                cluster.host, cluster.port, [{"op": "stats"}],
            )
        payload = response["result"]
        assert payload["qps"] > 0
        assert payload["p50_ms"] is not None
        assert set(payload["replicas"]) == {"replica-0", "replica-1"}
        assert all(r["up"] for r in payload["replicas"].values())


class TestReproTop:
    def test_top_once_renders_cluster(self, capsys):
        with use_registry(MetricsRegistry()):
            with ClusterManager(replicas=2, warm_specs=(SPEC,)) as cluster:
                run_loadgen(cluster.host, cluster.port, _workload())
                code = main([
                    "top", "--host", cluster.host,
                    "--port", str(cluster.port), "--once",
                ])
        assert code == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "replica-0" in out and "replica-1" in out
        assert "UP" in out
        assert "serve.latency_ms" in out

    def test_top_once_against_nothing_fails_cleanly(self, capsys):
        code = main([
            "top", "--host", "127.0.0.1", "--port", "1", "--once",
        ])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestFlightDumps:
    def test_kill_dumps_flight_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        with ClusterManager(replicas=2, warm_specs=(SPEC,)) as cluster:
            run_loadgen(cluster.host, cluster.port, _workload())
            cluster.kill("replica-0")
            cluster.restart("replica-0")
        kill_dumps = list(tmp_path.glob("flight-kill-*.json"))
        assert kill_dumps
        payload = json.loads(kill_dumps[0].read_text())
        assert payload["reason"] == "kill"
        kinds = [event["kind"] for event in payload["events"]]
        assert "cluster.kill" in kinds

    def test_drain_dumps_flight_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        engine = QueryEngine()
        with ServerThread(engine) as server:
            run_loadgen(server.host, server.port, _workload(count=8))
            assert server.drain(timeout=5.0)
        drain_dumps = list(tmp_path.glob("flight-drain-*.json"))
        assert drain_dumps
        payload = json.loads(drain_dumps[0].read_text())
        assert payload["extra"]["clean"] is True
        assert payload["extra"]["stats"]["completed"] > 0


class TestLoadgenCli:
    def test_loadgen_trace_trees_cli(self, tmp_path, capsys):
        trees_path = tmp_path / "trees.jsonl"
        reset_span_buffer()
        code = main([
            "loadgen", "MS", "--l", "2", "--n", "2",
            "--cluster", "2", "--cluster-shards", "1",
            "--count", "16", "--batch", "4",
            "--trace-sample", "1.0",
            "--trace-trees", str(trees_path), "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["closed"] is True
        assert summary["traced"] == summary["sent"]
        trees = [
            json.loads(line)
            for line in trees_path.read_text().splitlines()
        ]
        assert len(trees) == summary["sent"]
        assert all(
            parentage_path(tree, "engine.execute") == FULL_CHAIN
            for tree in trees
        )

    def test_loadgen_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, [], trace_sample=1.5)
