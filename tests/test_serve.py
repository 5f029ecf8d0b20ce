"""Tests for the serving layer (:mod:`repro.serve`).

Three belts:

* **differential** — batched :class:`QueryEngine` answers must match
  the single-query object-path functions (FIFO BFS layers,
  ``shortest_path``, ``map_node``) on all ten network families;
* **mechanism** — LRU bounds and eviction counting, shard-pool
  backpressure and crash-restart accounting, batching-window plumbing;
* **end-to-end smoke** — a live server under the loadgen with closed
  accounting (``responses + timeouts == requests``), the CI gate.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.core.lru import LRUCache
from repro.core.permutations import Permutation
from repro.networks import FAMILIES, make_network
from repro.serve import (
    AdaptiveWindow,
    LoadGenResult,
    QueryEngine,
    QueryError,
    ServerThread,
    ShardOverload,
    ShardPool,
    make_workload,
    node_str,
    parse_ids,
    parse_node,
    parse_symbols,
    percentile,
    replay_trace,
    run_loadgen,
    save_trace,
    uniform_pairs,
    wire,
)

#: every family at a small materialisable size, plus IS — the "all ten
#: families" differential matrix.
ALL_TEN = [(family, {"family": family, "l": 2, "n": 2})
           for family in FAMILIES] + [("IS", {"family": "IS", "k": 4})]
#: the same ten families, all at k = 5.
ALL_TEN_K5 = ALL_TEN[:-1] + [("IS", {"family": "IS", "k": 5})]


def _oracle_depths(net):
    """Object-path BFS depths from the identity, via FIFO layers."""
    depths = {}
    for depth, layer in enumerate(net.bfs_layers()):
        for node in layer:
            depths[node] = depth
    return depths


# ----------------------------------------------------------------------
# Node codec
# ----------------------------------------------------------------------


class TestNodeCodec:
    def test_parse_forms(self):
        p = Permutation([3, 4, 2, 5, 1])
        assert parse_node("34251", 5) == p
        assert parse_node("3,4,2,5,1", 5) == p
        assert parse_node([3, 4, 2, 5, 1], 5) == p
        assert node_str(p) == "34251"

    def test_parse_rejects(self):
        with pytest.raises(QueryError):
            parse_node("3425", 5)      # wrong length
        with pytest.raises(QueryError):
            parse_node("34255", 5)     # duplicate symbol
        with pytest.raises(QueryError):
            parse_node("34256", 5)     # out of range

    def test_batch_parse_matches_scalar(self):
        net = make_network("MS", l=2, n=2)
        compiled = net.compiled()
        nodes = [node_str(Permutation.unrank(net.k, r))
                 for r in range(0, 120, 7)]
        ids = parse_ids(nodes, net.k)
        expected = [compiled.node_id(parse_node(v, net.k)) for v in nodes]
        assert ids.tolist() == expected

    def test_batch_parse_mixed_forms(self):
        symbols = parse_symbols(["34251", "3,4,2,5,1", [3, 4, 2, 5, 1]], 5)
        assert symbols.tolist() == [[3, 4, 2, 5, 1]] * 3

    def test_batch_parse_rejects_bad_row(self):
        with pytest.raises(QueryError):
            parse_symbols(["12345", "11345"], 5)
        with pytest.raises(QueryError):
            parse_symbols(["12345", "12346"], 5)


# ----------------------------------------------------------------------
# Differential: engine vs object path, all ten families
# ----------------------------------------------------------------------


class TestEngineDifferential:
    @pytest.mark.parametrize("family,spec", ALL_TEN,
                             ids=[f for f, _ in ALL_TEN])
    def test_distance_matches_object_bfs(self, family, spec):
        """Batched distances equal FIFO-BFS depths of s^-1 t."""
        engine = QueryEngine()
        net = make_network(**spec)
        depths = _oracle_depths(net)
        pairs = list(uniform_pairs(net.k, 20, seed=3))
        response = engine.execute({
            "op": "distance", "network": spec, "pairs": pairs,
        })
        assert response["ok"], response
        for (source, target), got in zip(
            pairs, response["result"]["distances"]
        ):
            s = parse_node(source, net.k)
            t = parse_node(target, net.k)
            assert got == depths[s.inverse() * t]

    @pytest.mark.parametrize("family,spec", ALL_TEN,
                             ids=[f for f, _ in ALL_TEN])
    def test_route_matches_shortest_path(self, family, spec):
        """Pairs-mode table routes replay ``shortest_path`` exactly
        (same word, not merely the same length), and every payload
        field matches the object path — whether the pairs arrive as
        JSON digit strings, as list and comma nodes, or as a binary
        column frame."""
        from repro.routing import star_distance_between

        net = make_network(**spec)
        pairs = list(uniform_pairs(net.k, 8, seed=5))
        pairs.append((pairs[0][0], pairs[0][0]))  # the empty route
        mixed = [
            [list(parse_node(s, net.k).symbols),
             ",".join(map(str, parse_node(t, net.k).symbols))]
            for s, t in pairs
        ]
        frame = wire.encode_request(
            {"op": "route", "network": spec, "pairs": pairs}
        )
        binary = wire.decode_request(wire.parse_frame(frame))
        assert isinstance(binary["symbols"][0], np.ndarray)
        for request in (
            {"op": "route", "network": spec, "pairs": pairs},
            {"op": "route", "network": spec, "pairs": mixed},
            binary,
        ):
            response = QueryEngine().execute(request)
            assert response["ok"], response
            routes = response["result"]["routes"]
            assert len(routes) == len(pairs)
            for (source, target), payload in zip(pairs, routes):
                s = parse_node(source, net.k)
                t = parse_node(target, net.k)
                expected = [dim for dim, _ in net.shortest_path(s, t)]
                assert payload == {
                    "network": net.name,
                    "source": source,
                    "target": target,
                    "algorithm": "table",
                    "word": expected,
                    "hops": len(expected),
                    "star_distance": star_distance_between(s, t),
                    "optimal": len(expected),
                }

    @pytest.mark.parametrize("family,spec", ALL_TEN,
                             ids=[f for f, _ in ALL_TEN])
    def test_hotspot_route_valid_and_shortest(self, family, spec):
        """Target+sources routes walk the identity-rooted BFS tree like
        pair routes do (left translation is a graph automorphism), so
        each word is walkable, optimal and exactly ``shortest_path``'s
        word, on the directed families (MR, RR, complete-RR) too."""
        engine = QueryEngine()
        net = make_network(**spec)
        target = node_str(Permutation.unrank(net.k, 77 % net.num_nodes))
        sources = [node_str(p) for p, _ in zip(
            (Permutation.unrank(net.k, r % net.num_nodes)
             for r in range(0, 120, 11)),
            range(10),
        )]
        response = engine.execute({
            "op": "route", "network": spec,
            "target": target, "sources": sources,
        })
        assert response["ok"], response
        t = parse_node(target, net.k)
        for source, payload in zip(sources, response["result"]["routes"]):
            s = parse_node(source, net.k)
            node = s
            for dim in payload["word"]:
                node = net.neighbor(node, dim)
            assert node == t                      # walkable to target
            assert payload["hops"] == net.distance(s, t)  # and shortest
            assert payload["word"] == [
                dim for dim, _ in net.shortest_path(s, t)
            ]

    def test_neighbors_matches_graph(self):
        engine = QueryEngine()
        spec = {"family": "RS", "l": 2, "n": 2}
        net = make_network(**spec)
        node = Permutation.unrank(net.k, 33)
        response = engine.execute({
            "op": "neighbors", "network": spec, "nodes": [node_str(node)],
        })
        assert response["ok"], response
        (got,) = response["result"]["neighbors"]
        expected = {
            dim: node_str(net.neighbor(node, dim))
            for dim in (g.name for g in net.generators)
        }
        assert got == expected

    def test_embedding_matches_map_node(self):
        engine = QueryEngine()
        spec = {"family": "MS", "l": 2, "n": 2}
        net = make_network(**spec)
        from repro.embeddings import embed_star

        emb = embed_star(net)
        nodes = [node_str(Permutation.unrank(net.k, r))
                 for r in (0, 17, 51, 119)]
        response = engine.execute({
            "op": "embedding", "network": spec, "guest": "star",
            "nodes": nodes,
        })
        assert response["ok"], response
        expected = [
            node_str(emb.map_node(parse_node(v, net.k))) for v in nodes
        ]
        assert response["result"]["images"] == expected

    def test_properties_matches_graph(self):
        engine = QueryEngine()
        spec = {"family": "IS", "k": 4}
        net = make_network(**spec)
        response = engine.execute({
            "op": "properties", "network": spec,
        })
        assert response["ok"], response
        result = response["result"]
        assert result["nodes"] == net.num_nodes
        assert result["degree"] == net.degree
        assert result["diameter"] == net.diameter()
        assert result["connected"]

    def test_algorithmic_route_matches_cli_router(self):
        """algorithm="algorithmic" runs the per-family router, so its
        payload equals ``repro route --json`` output by construction."""
        from repro.serve import algorithmic_route, route_payloads

        engine = QueryEngine()
        spec = {"family": "MS", "l": 2, "n": 2}
        net = make_network(**spec)
        source = Permutation.unrank(net.k, 93)
        response = engine.execute({
            "op": "route", "network": spec, "algorithm": "algorithmic",
            "pairs": [[node_str(source), node_str(net.identity)]],
        })
        assert response["ok"], response
        word = algorithmic_route(net, source, net.identity)
        assert response["result"]["routes"] == route_payloads(
            net, np.asarray([source.symbols]),
            np.asarray([net.identity.symbols]), [word], "algorithmic",
        )


# ----------------------------------------------------------------------
# Protocol behaviour
# ----------------------------------------------------------------------


class TestEngineProtocol:
    def test_errors_are_responses_not_exceptions(self):
        engine = QueryEngine()
        for request in (
            {"op": "nope"},
            {"op": "distance", "network": {"family": "??"}, "pairs": []},
            {"op": "distance", "network": {"family": "MS", "l": 2, "n": 2}},
            {"op": "route", "network": {"family": "MS", "l": 2, "n": 2},
             "pairs": [["12345", "12345"]], "algorithm": "psychic"},
        ):
            response = engine.execute(request)
            assert response["ok"] is False
            assert "error" in response

    def test_id_echoed(self):
        engine = QueryEngine()
        response = engine.execute({
            "op": "distance", "network": {"family": "IS", "k": 4},
            "pairs": [["1234", "2134"]], "id": 41,
        })
        assert response["id"] == 41 and response["ok"]

    def test_rejects_unmaterialisable_instance(self):
        engine = QueryEngine()
        response = engine.execute({
            "op": "distance", "network": {"family": "MS", "l": 4, "n": 3},
            "pairs": [],
        })
        assert response["ok"] is False
        assert "materialisable" in response["error"]

    def test_malformed_requests_fail_closed(self):
        """Malformed-but-JSON requests come back ``ok: false`` with the
        id echoed — never as an exception through the protocol
        boundary (bad digits, non-string nodes, short pairs, wrong
        container types)."""
        engine = QueryEngine()
        spec = {"family": "MS", "l": 2, "n": 2}
        poison = [
            {"op": "distance", "network": spec,
             "pairs": [["1a345", "12345"]], "id": 1},
            {"op": "distance", "network": spec,
             "pairs": [[12345, 54321]], "id": 2},
            {"op": "distance", "network": spec, "pairs": [["12345"]],
             "id": 3},
            {"op": "distance", "network": spec, "pairs": "12345",
             "id": 4},
            {"op": "route", "network": spec, "pairs": [["12345"]],
             "id": 5},
            {"op": "route", "network": spec, "pairs": 3, "id": 6},
            {"op": "route", "network": spec, "sources": 3,
             "target": "12345", "id": 7},
            {"op": "neighbors", "network": spec, "nodes": 3, "id": 8},
            {"op": "embedding", "network": spec, "nodes": [["x"]],
             "id": 9},
            # the target is checked even when there are no sources
            {"op": "route", "network": spec, "sources": [],
             "target": "1a345", "id": 10},
        ]
        # a "symbols" value that is no pair of int64 matrices at all
        too_big = [[[1, 2, 3, 4, 2 ** 70]], [[1, 2, 3, 4, 5]]]
        for op in ("distance", "route"):
            for symbols in (3, [], [3, 4], "", {"a": 1}, too_big):
                poison.append({"op": op, "network": spec,
                               "symbols": symbols, "id": len(poison) + 1})
        # a "network" that is no spec dict at all
        for op in ("distance", "route"):
            for network in ("MS", ["MS"]):
                poison.append({"op": op, "network": network,
                               "pairs": [["34251", "12345"]],
                               "id": len(poison) + 1})
        for request in poison:
            response = engine.execute(request)
            assert response["ok"] is False, request
            assert response["id"] == request["id"]
            assert response["error"]
        # and through the batching entry point too
        responses = engine.execute_many(poison)
        assert all(r["ok"] is False for r in responses)
        # one poisoned member must not fail the rest of its batch,
        # whether its neighbours coalesce as distances or table routes
        for op in ("distance", "route"):
            valid = {"op": op, "network": spec,
                     "pairs": [["34251", "12345"]]}
            for request in poison:
                responses = engine.execute_many([valid, request, valid])
                assert [r["ok"] for r in responses] == [True, False, True], \
                    (op, request)

    @pytest.mark.parametrize("op", ["distance", "route"])
    @pytest.mark.parametrize("family,spec", ALL_TEN_K5,
                             ids=[f for f, _ in ALL_TEN_K5])
    def test_execute_many_coalesces_and_matches(self, family, spec, op):
        """Coalesced same-network batches answer exactly like one-at-a-
        time execution, whichever wire form each member arrived in,
        with a hotspot and an algorithmic route (never coalesced) in
        the same batch."""
        engine = QueryEngine()
        requests = make_workload("uniform", spec, k=5, count=18,
                                 seed=11, batch=3, op=op)
        requests.insert(2, {"op": "route", "network": spec,
                            "target": "34251",
                            "sources": ["12345", "54321", "21435"]})
        requests.insert(5, {"op": "route", "network": spec,
                            "pairs": [["12345", "34251"]],
                            "algorithm": "algorithmic"})
        for i, request in enumerate(requests):
            request["id"] = i
        for i in (0, 3, 6):  # binary column frames carry "symbols"
            frame = wire.parse_frame(wire.encode_request(requests[i]))
            requests[i] = wire.decode_request(frame)
            assert "symbols" in requests[i]
        merged = engine.execute_many(requests)
        singles = [QueryEngine().execute(r) for r in requests]
        assert all(r["ok"] for r in singles)
        assert merged == singles

    def test_execute_many_mixed_ops_and_errors(self):
        engine = QueryEngine()
        spec = {"family": "IS", "k": 4}
        responses = engine.execute_many([
            {"op": "distance", "network": spec,
             "pairs": [["1234", "4321"]]},
            {"op": "bogus"},
            {"op": "properties", "network": spec},
            {"op": "distance", "network": spec,
             "pairs": [["1234", "2143"]]},
        ])
        assert [r["ok"] for r in responses] == [True, False, True, True]

    def test_engine_uses_table_cache(self, tmp_path):
        engine = QueryEngine(table_cache=str(tmp_path))
        spec = {"family": "IS", "k": 4}
        assert engine.execute({
            "op": "properties", "network": spec,
        })["ok"]
        assert (tmp_path / "IS(4).tables").exists()
        warm = QueryEngine(table_cache=str(tmp_path))
        assert warm.execute({
            "op": "properties", "network": spec,
        })["ok"]


# ----------------------------------------------------------------------
# LRU bounds
# ----------------------------------------------------------------------


class TestLRU:
    def test_capacity_and_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refreshes a's recency
        cache.put("c", 3)                # evicts b, the LRU entry
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_eviction_metric(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            cache = LRUCache(1, metric="serve.table_evictions",
                             cache="test")
            cache.put("a", 1)
            cache.put("b", 2)
        counter = registry.counter("serve.table_evictions")
        assert counter.value(cache="test") == 1
        assert counter.total() == 1


# ----------------------------------------------------------------------
# Shard pool
# ----------------------------------------------------------------------


class TestShardPool:
    def test_family_pinning_is_stable(self):
        pool = ShardPool(num_shards=3)
        shard = pool.shard_for({"family": "MS", "l": 2, "n": 2})
        assert shard == pool.shard_for({"family": "MS", "l": 7, "n": 1})
        assert 0 <= shard < 3

    def test_execute_many_routes_and_closes(self):
        spec = {"family": "MS", "l": 2, "n": 2}
        requests = make_workload("uniform", spec, k=5, count=9,
                                 seed=2, batch=3)
        oracle = QueryEngine().execute_many(requests)
        with ShardPool(num_shards=2, queue_depth=8) as pool:
            responses = pool.execute_many(requests)
            stats = pool.stats()
        for got, want in zip(responses, oracle):
            assert got["ok"] and got["result"] == want["result"]
        assert stats["closed"] and stats["completed"] == 3

    def test_backpressure_raises_overload(self):
        spec = {"family": "MS", "l": 2, "n": 2}
        pool = ShardPool(num_shards=1, queue_depth=2, restart=False)
        # Not started: nothing consumes, so the queue bound is exact.
        pool._started = True
        request = {"op": "properties", "network": spec}
        pool.submit(request)
        pool.submit(request)
        with pytest.raises(ShardOverload):
            pool.submit(request)
        assert pool.stats()["submitted"] == 2

    def test_crash_restart_keeps_accounting_closed(self):
        """A worker dying mid-request fails that request explicitly,
        restarts, and keeps serving — nothing is lost or double-counted."""
        spec = {"family": "MS", "l": 2, "n": 2}
        good = make_workload("uniform", spec, k=5, count=4,
                             seed=6, batch=2)
        with ShardPool(num_shards=1, queue_depth=16) as pool:
            crash = {"op": "_crash", "network": spec, "delay": 0.3}
            responses = pool.execute_many(
                [crash] + good, timeout=30.0
            )
            stats = pool.stats()
        assert responses[0]["ok"] is False
        assert "crashed" in responses[0]["error"]
        assert all(r["ok"] for r in responses[1:])
        assert stats["restarts"] == 1
        assert stats["closed"]
        assert stats["submitted"] == stats["completed"] + stats["failed"]

    def test_lost_claim_fails_fast_not_at_drain_deadline(self):
        """A worker dying *before* its claim reaches the parent (the
        lost-claim window) must not stall the batch until the drain
        deadline: dispatch tracking fails it immediately, queued
        requests survive the restart, and the books close."""
        spec = {"family": "MS", "l": 2, "n": 2}
        good = make_workload("uniform", spec, k=5, count=4,
                             seed=9, batch=2)
        with ShardPool(num_shards=1, queue_depth=16) as pool:
            start = time.monotonic()
            responses = pool.execute_many(
                [{"op": "_crash_silent", "network": spec}] + good,
                timeout=30.0,
            )
            elapsed = time.monotonic() - start
            stats = pool.stats()
        assert responses[0]["ok"] is False
        assert "crashed" in responses[0]["error"]
        assert all(r["ok"] for r in responses[1:])
        assert stats["restarts"] == 1
        assert stats["closed"]
        assert elapsed < 15.0  # far from the 30s drain deadline


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class TestWorkloads:
    def test_generators_deterministic(self):
        for kind in ("uniform", "hotspot", "transpose"):
            a = make_workload(kind, {"family": "IS", "k": 4}, k=4,
                              count=10, seed=3, batch=2)
            b = make_workload(kind, {"family": "IS", "k": 4}, k=4,
                              count=10, seed=3, batch=2)
            assert a == b
            assert sum(len(r["pairs"]) for r in a) == 10

    def test_transpose_targets_are_inverses(self):
        from repro.serve import transpose_pairs

        for source, target in transpose_pairs(5, 10, seed=1):
            s = parse_node(source, 5)
            assert parse_node(target, 5) == s.inverse()

    def test_trace_roundtrip(self, tmp_path):
        requests = make_workload("hotspot", {"family": "IS", "k": 4},
                                 k=4, count=8, seed=5, batch=4)
        path = tmp_path / "trace.jsonl"
        assert save_trace(requests, path) == len(requests)
        assert list(replay_trace(path)) == requests

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)
        assert percentile([], 50) is None
        assert percentile([7.0], 99) == 7.0

    def test_loadgen_result_accounting(self):
        result = LoadGenResult(sent=5, ok=3, errors=1, timeouts=1)
        assert result.closed
        result.sent = 6
        assert not result.closed


# ----------------------------------------------------------------------
# End-to-end server smoke (CI gate: -k smoke)
# ----------------------------------------------------------------------


class TestServerSmoke:
    def test_server_loadgen_smoke_closed_accounting(self):
        """The e2e gate: a live TCP server under concurrent loadgen
        answers every request exactly once and both sides agree."""
        engine = QueryEngine()
        spec = {"family": "MS", "l": 2, "n": 2}
        requests = make_workload("uniform", spec, k=5, count=60,
                                 seed=8, batch=4)
        with ServerThread(engine, batch_window=0.001) as server:
            result = run_loadgen(
                server.host, server.port, requests, concurrency=3
            )
            stats = server.server.stats()
        # client-side closed accounting
        assert result.closed, result.to_dict()
        assert result.sent == len(requests)
        assert result.ok == result.sent
        assert result.errors == 0 and result.timeouts == 0
        assert result.p50_ms is not None and result.p99_ms is not None
        # server-side closed accounting agrees
        assert stats["closed"], stats
        assert stats["received"] == len(requests)
        assert stats["completed"] == len(requests)

    def test_server_smoke_answers_match_direct_engine(self):
        """Answers through the socket equal direct engine execution."""
        spec = {"family": "IS", "k": 4}
        requests = make_workload("hotspot", spec, k=4, count=20,
                                 seed=13, batch=4)
        oracle = QueryEngine().execute_many(
            [dict(r, id=i) for i, r in enumerate(requests)]
        )
        collected = {}

        import socket

        with ServerThread(QueryEngine()) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rw")
                for i, request in enumerate(requests):
                    fh.write(json.dumps(dict(request, id=i)) + "\n")
                fh.flush()
                for _ in requests:
                    response = json.loads(fh.readline())
                    collected[response["id"]] = response
        assert len(collected) == len(requests)
        for i, want in enumerate(oracle):
            assert collected[i] == want

    def test_server_smoke_malformed_and_stats(self):
        with ServerThread(QueryEngine()) as server:
            import socket

            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rw")
                fh.write("this is not json\n")
                fh.flush()
                response = json.loads(fh.readline())
                assert response["ok"] is False
                assert "malformed" in response["error"]
                fh.write(json.dumps({"op": "stats", "id": 1}) + "\n")
                fh.flush()
                stats = json.loads(fh.readline())
                assert stats["ok"] and stats["result"]["closed"]

    def test_server_admission_control_rejects_over_capacity(self):
        """Requests beyond max_pending are rejected, not queued — and
        the rejections are answered (accounting still closes)."""

        class SlowBackend:
            def execute_many(self, requests):
                import time as time_module

                time_module.sleep(0.2)
                return [
                    {"ok": True, "op": r.get("op"), "result": {},
                     **({"id": r["id"]} if "id" in r else {})}
                    for r in requests
                ]

        spec = {"family": "IS", "k": 4}
        requests = make_workload("uniform", spec, k=4, count=40,
                                 seed=1, batch=1)
        with ServerThread(
            SlowBackend(), max_pending=2, batch_window=0.05
        ) as server:
            result = run_loadgen(
                server.host, server.port, requests, concurrency=8
            )
            stats = server.server.stats()
        assert result.closed
        assert result.errors > 0          # some "overloaded" rejections
        assert any("overloaded" in m for m in result.error_messages)
        assert stats["closed"]
        assert stats["rejected"] == result.errors

    def test_backend_exception_does_not_kill_batcher(self):
        """A backend that raises (a poison request) must not kill the
        batch loop: the poisoned batch is answered with errors and the
        server keeps serving later requests — no remote DoS."""

        class PoisonBackend:
            def __init__(self):
                self.engine = QueryEngine()

            def execute_many(self, requests):
                if any(r.get("op") == "_poison" for r in requests):
                    raise RuntimeError("boom")
                return self.engine.execute_many(requests)

        spec = {"family": "IS", "k": 4}
        with ServerThread(PoisonBackend(), batch_window=0.001) as server:
            poisoned = run_loadgen(
                server.host, server.port, [{"op": "_poison"}],
                concurrency=1, timeout=5.0,
            )
            after = run_loadgen(
                server.host, server.port,
                [{"op": "distance", "network": spec,
                  "pairs": [["1234", "2134"]]}],
                concurrency=1, timeout=5.0,
            )
            stats = server.server.stats()
        assert poisoned.closed and poisoned.errors == 1
        assert any("backend error" in m for m in poisoned.error_messages)
        assert after.closed and after.ok == 1   # the server survived
        assert stats["closed"]

    def test_loadgen_timeout_does_not_desync_connection(self):
        """After a client-side timeout the late response is discarded
        by id — it must not be miscounted as the answer to the next
        request on the connection."""

        class SlowErrorBackend:
            def execute_many(self, requests):
                responses = []
                for r in requests:
                    if r.get("op") == "slow":
                        time.sleep(1.5)
                        resp = {"ok": False, "op": "slow",
                                "error": "late and wrong"}
                    else:
                        resp = {"ok": True, "op": r.get("op"),
                                "result": {}}
                    if "id" in r:
                        resp["id"] = r["id"]
                    responses.append(resp)
                return responses

        requests = [{"op": "slow"}] + [{"op": "fast"}] * 5
        with ServerThread(
            SlowErrorBackend(), batch_window=0.001, request_timeout=30.0
        ) as server:
            result = run_loadgen(
                server.host, server.port, requests,
                concurrency=1, timeout=1.0,
            )
        assert result.timeouts == 1     # the slow request, and only it
        # With FIFO correlation the late "late and wrong" error would
        # be counted against the first fast request (ok=4, errors=1).
        assert result.errors == 0, result.error_messages
        assert result.ok == 5
        assert result.closed

    def test_serve_sweep_rows_close(self):
        from repro.experiments import serve_sweep

        rows = list(serve_sweep(
            family="IS", k=4, workloads=("uniform", "hotspot"),
            count=16, batch=4, concurrency=2,
        ))
        assert [r.workload for r in rows] == ["uniform", "hotspot"]
        for row in rows:
            assert row.closed
            assert row.ok == row.requests


# ----------------------------------------------------------------------
# Serve metrics
# ----------------------------------------------------------------------


class TestServeMetrics:
    def test_engine_emits_query_counters(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        spec = {"family": "IS", "k": 4}
        with use_registry(registry):
            engine = QueryEngine()
            requests = make_workload("uniform", spec, k=4, count=8,
                                     seed=2, batch=2)
            requests += make_workload("uniform", spec, k=4, count=6,
                                      seed=3, batch=2, op="route")
            engine.execute_many(requests)
        queries = registry.counter("serve.queries")
        assert queries.total() == len(requests)
        assert queries.value(op="distance") == 4
        assert queries.value(op="route") == 3
        assert registry.counter("serve.coalesced_requests").total() \
            == len(requests)

    def test_coalesced_batch_publishes_cache_gauges(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        spec = {"family": "MS", "l": 2, "n": 2}
        with use_registry(registry):
            responses = QueryEngine().execute_many([
                {"op": "distance", "network": spec,
                 "pairs": [["12345", "21345"]]},
                {"op": "distance", "network": spec,
                 "pairs": [["34251", "12345"]]},
            ])
        assert all(r["ok"] for r in responses), responses
        assert registry.counter("serve.coalesced_requests").total() == 2
        snap = registry.snapshot()["gauges"]
        entries = {
            row["labels"]["cache"]: row["value"]
            for row in snap["serve.cache_entries"]
        }
        assert entries["graphs"] == 1
        assert any(row["value"] > 0 for row in snap["serve.table_bytes"])


# ----------------------------------------------------------------------
# Trace replay pacing
# ----------------------------------------------------------------------


class TestTraceReplay:
    def test_stamp_arrivals_deterministic_and_monotone(self):
        from repro.serve import stamp_arrivals

        spec = {"family": "IS", "k": 4}
        requests = make_workload("uniform", spec, k=4, count=24,
                                 seed=5, batch=2)
        a = stamp_arrivals([dict(r) for r in requests], rate=100,
                           seed=7)
        b = stamp_arrivals([dict(r) for r in requests], rate=100,
                           seed=7)
        stamps = [r["ts"] for r in a]
        assert stamps == [r["ts"] for r in b]
        assert all(t >= 0 for t in stamps)
        assert stamps == sorted(stamps)
        with pytest.raises(ValueError):
            stamp_arrivals(requests, rate=0)

    def test_replay_speed_paces_sends(self):
        """Stamped arrivals stretch the run to ~ts_max/replay_speed;
        a faster replay speed finishes proportionally sooner."""
        from repro.serve import stamp_arrivals

        spec = {"family": "MS", "l": 2, "n": 2}
        requests = make_workload("uniform", spec, k=5, count=16,
                                 seed=1, batch=2)
        requests = stamp_arrivals(requests, rate=40, seed=3)
        span = requests[-1]["ts"]
        engine = QueryEngine()
        with ServerThread(engine) as server:
            start = time.monotonic()
            result = run_loadgen(
                server.host, server.port,
                [dict(r) for r in requests],
                concurrency=2, replay_speed=4.0,
            )
            elapsed = time.monotonic() - start
        assert result.closed and result.ok == result.sent
        # open-loop pacing: wall time at least the scaled trace span
        assert elapsed >= span / 4.0
        with pytest.raises(ValueError):
            run_loadgen("h", 1, requests, replay_speed=0)

    def test_replay_strips_ts_before_send(self):
        """The `ts` pacing stamp is client-side only — servers must
        still answer stamped requests (ts never reaches the wire)."""
        from repro.serve import stamp_arrivals

        spec = {"family": "IS", "k": 4}
        requests = stamp_arrivals(
            make_workload("uniform", spec, k=4, count=6, seed=2,
                          batch=2),
            rate=1000, seed=1,
        )
        engine = QueryEngine()
        with ServerThread(engine) as server:
            result = run_loadgen(
                server.host, server.port, requests,
                concurrency=1, replay_speed=50.0,
            )
        assert result.ok == result.sent and result.errors == 0


# ----------------------------------------------------------------------
# Graceful shutdown (SIGTERM drain)
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_drain_flushes_pending_then_rejects(self):
        """In-process: drain answers parked work; new arrivals during
        drain are rejected with closed accounting."""
        import socket

        engine = QueryEngine()
        with ServerThread(engine, batch_window=0.001) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rw")
                fh.write(json.dumps({
                    "id": 0, "op": "properties",
                    "network": {"family": "MS", "l": 2, "n": 2},
                }) + "\n")
                fh.flush()
                assert json.loads(fh.readline())["ok"]
                assert server.drain(timeout=10)
                fh.write(json.dumps({
                    "id": 1, "op": "properties",
                    "network": {"family": "MS", "l": 2, "n": 2},
                }) + "\n")
                fh.flush()
                refused = json.loads(fh.readline())
            stats = server.server.stats()
        assert refused["ok"] is False
        assert "draining" in refused["error"]
        assert stats["draining"] is True
        assert stats["closed"], stats

    def test_sigterm_drains_live_subprocess(self):
        """Regression: a live `repro serve` process answers what it
        accepted, prints closed final stats, and exits 0 on SIGTERM."""
        import os
        import signal
        import socket
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "serving on" in banner, banner
            host, port = banner.split()[2].rsplit(":", 1)
            with socket.create_connection(
                (host, int(port)), timeout=15
            ) as sock:
                fh = sock.makefile("rw")
                for i in range(5):
                    fh.write(json.dumps({
                        "id": i, "op": "properties",
                        "network": {"family": "MS", "l": 2, "n": 2},
                    }) + "\n")
                fh.flush()
                for i in range(5):
                    response = json.loads(fh.readline())
                    assert response["ok"], response
            proc.send_signal(signal.SIGTERM)
            stderr = proc.stderr.read()
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert code == 0, stderr
        assert "draining in-flight batches" in stderr
        assert "Traceback" not in stderr, stderr
        payload = stderr[stderr.index("{"):]
        stats = json.loads(payload[:payload.rindex("}") + 1])
        assert stats["closed"], stats
        assert stats["received"] == 5
        assert stats["completed"] == 5


# ----------------------------------------------------------------------
# Wire protocols end to end
# ----------------------------------------------------------------------


def _exchange(host, port, requests, protocol):
    """One connection, sequential request/response, decoded dicts."""

    async def _go():
        reader, writer = await asyncio.open_connection(
            host, port, limit=wire.WIRE_LIMIT
        )
        out = []
        try:
            for request in requests:
                if protocol == "binary":
                    writer.write(wire.encode_request(request))
                else:
                    writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                message = await wire.read_message(reader)
                assert message is not None, "connection died"
                assert message is not wire.OVERSIZED
                if isinstance(message, wire.Frame):
                    out.append(wire.decode_response(message))
                else:
                    out.append(json.loads(message))
        finally:
            writer.close()
        return out

    return wire.run(_go())


class TestProtocolEquivalence:
    def test_json_and_binary_responses_identical_all_families(self):
        """The binary protocol is a transport, not a dialect: decoded
        responses equal the JSON ones for every family and op kind."""
        with ServerThread(QueryEngine(), batch_window=0.001) as server:
            for family, spec in ALL_TEN:
                net = make_network(**spec)
                pairs = list(uniform_pairs(net.k, 6, seed=3))
                requests = [
                    {"id": 1, "op": "distance", "network": spec,
                     "pairs": pairs},
                    {"id": 2, "op": "route", "network": spec,
                     "pairs": pairs[:2]},
                    {"id": 3, "op": "properties", "network": spec},
                ]
                via_json = _exchange(
                    server.host, server.port, requests, "json"
                )
                via_binary = _exchange(
                    server.host, server.port, requests, "binary"
                )
                assert all(r["ok"] for r in via_json), (family, via_json)
                assert via_json == via_binary, family
            stats = server.server.stats()
        assert stats["closed"], stats
        assert stats["malformed"] == 0

    def test_mixed_protocols_on_one_connection(self):
        """Sniffing is per message: JSON and frames interleave freely
        on a single connection."""
        spec = {"family": "MS", "l": 2, "n": 2}
        request = {"id": 1, "op": "properties", "network": spec}

        async def _go(host, port):
            reader, writer = await asyncio.open_connection(
                host, port, limit=wire.WIRE_LIMIT
            )
            writer.write(json.dumps(request).encode() + b"\n")
            writer.write(wire.encode_request(dict(request, id=2)))
            writer.write(json.dumps(dict(request, id=3)).encode() + b"\n")
            await writer.drain()
            out = []
            for _ in range(3):
                message = await wire.read_message(reader)
                out.append(
                    wire.decode_response(message)
                    if isinstance(message, wire.Frame)
                    else json.loads(message)
                )
            writer.close()
            return out

        with ServerThread(QueryEngine(), batch_window=0.001) as server:
            responses = wire.run(_go(server.host, server.port))
        by_id = {r["id"]: r for r in responses}
        assert set(by_id) == {1, 2, 3}
        assert all(r["ok"] for r in responses)
        # protocol of the answer follows the protocol of the question
        assert by_id[1]["result"] == by_id[2]["result"]


class TestOversizedRequests:
    def test_over_64k_batch_served_on_both_protocols(self):
        """Regression for the 64 KiB ceiling: a JSON batch far over the
        old default stream limit is answered, not fatal, on both
        protocols — accounting stays closed."""
        spec = {"family": "MS", "l": 2, "n": 2}
        pairs = list(uniform_pairs(5, 4096, seed=2))
        request = {"id": 1, "op": "distance", "network": spec,
                   "pairs": pairs}
        assert len(json.dumps(request).encode()) > 64 * 1024
        with ServerThread(QueryEngine(), batch_window=0.001) as server:
            (via_json,) = _exchange(
                server.host, server.port, [request], "json"
            )
            (via_binary,) = _exchange(
                server.host, server.port, [request], "binary"
            )
            stats = server.server.stats()
        assert via_json["ok"], via_json
        assert len(via_json["result"]["distances"]) == len(pairs)
        assert via_json == via_binary
        assert stats["closed"], stats
        assert stats["received"] == 2 and stats["malformed"] == 0

    def test_line_over_wire_limit_answered_connection_survives(self):
        """A single line beyond even the raised 16 MiB limit draws an
        error response; the connection keeps working afterwards."""

        async def _go(host, port):
            reader, writer = await asyncio.open_connection(
                host, port, limit=wire.WIRE_LIMIT
            )
            writer.write(b"{" + b"x" * (wire.WIRE_LIMIT + 1024) + b"}\n")
            await writer.drain()
            first = json.loads(await wire.read_message(reader))
            writer.write(json.dumps({"op": "stats", "id": 2}).encode()
                         + b"\n")
            await writer.drain()
            second = json.loads(await wire.read_message(reader))
            writer.close()
            return first, second

        with ServerThread(QueryEngine()) as server:
            first, second = wire.run(_go(server.host, server.port))
            stats = server.server.stats()
        assert first["ok"] is False
        assert "malformed" in first["error"]
        assert second["ok"] and second["result"]["closed"]
        assert stats["malformed"] == 1
        assert stats["closed"], stats


# ----------------------------------------------------------------------
# Adaptive micro-batch window
# ----------------------------------------------------------------------


class TestAdaptiveWindow:
    def test_burst_shrinks_trickle_stays_at_cap(self):
        burst = AdaptiveWindow(cap=0.01, target_batch=64)
        for i in range(200):
            burst.observe(i * 1e-5)  # ~100k req/s
        trickle = AdaptiveWindow(cap=0.01, target_batch=64)
        for i in range(20):
            trickle.observe(i * 0.5)  # 2 req/s
        assert burst.window() < trickle.window()
        assert trickle.window() == 0.01
        # burst window ~ target_batch / rate, clamped above the floor
        assert burst.window() == pytest.approx(64 / 100_000, rel=0.3)
        assert burst.window() >= burst.floor

    def test_cold_start_uses_cap(self):
        window = AdaptiveWindow(cap=0.004)
        assert window.window() == 0.004
        window.observe(0.0)  # one arrival: still no gap, still the cap
        assert window.window() == 0.004

    def test_floor_clamps_extreme_rates(self):
        window = AdaptiveWindow(cap=0.01, target_batch=1, floor=1e-4)
        for i in range(100):
            window.observe(i * 1e-6)
        assert window.window() == window.floor


# ----------------------------------------------------------------------
# Wide alphabets (k >= 10)
# ----------------------------------------------------------------------


class TestWideAlphabetParsing:
    """MS(10,1)-sized specs have k = 11: digit-string labels are
    ambiguous, so the vectorised ASCII fast path must stand down and
    the comma form must round-trip."""

    def test_parse_symbols_comma_form_k11(self):
        base = list(range(1, 12))
        rotated = base[1:] + base[:1]
        nodes = [",".join(map(str, base)), ",".join(map(str, rotated))]
        symbols = parse_symbols(nodes, 11)
        assert symbols.shape == (2, 11)
        assert symbols[0].tolist() == base
        assert symbols[1].tolist() == rotated

    def test_parse_symbols_digit_string_rejected_k11(self):
        # 11 chars, k = 11: the single-digit fast path would misread
        # "10" as two symbols — must reject cleanly via parse_node
        with pytest.raises(QueryError, match="bad node"):
            parse_symbols(["12345678910"], 11)

    def test_node_str_emits_comma_form_past_nine(self):
        net = make_network(family="MS", l=10, n=1)
        assert net.k == 11
        label = node_str(list(range(1, 12)))
        assert "," in label
        assert parse_node(label, 11).symbols == tuple(range(1, 12))

    def test_engine_rejects_wide_spec_cleanly(self):
        # the request is refused with an error response (here at the
        # materialisability guard, before any node even parses) — never
        # a crash or a silently misread label
        engine = QueryEngine()
        response = engine.execute({
            "op": "distance",
            "network": {"family": "MS", "l": 10, "n": 1},
            "pairs": [["12345678910", "12345678910"]],
        })
        assert response["ok"] is False
        assert "not materialisable" in response["error"]
