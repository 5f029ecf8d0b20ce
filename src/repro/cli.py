"""Command-line interface: inspect networks, route, schedule, embed.

Usage (also via ``python -m repro``)::

    repro properties MS --l 2 --n 3
    repro families
    repro route MS --l 2 --n 2 --source 34251
    repro schedule MS --l 4 --n 3
    repro embed tn MS --l 2 --n 2
    repro game MS --l 2 --n 2 --start 31542
    repro mnb star --k 4

Every subcommand accepts the observability flags ``--metrics``,
``--trace-out FILE``, and ``--profile`` (docs/observability.md), plus
``--json`` on ``properties`` and ``mnb`` for structured output.  The
``--profile`` table summarises the same spans ``--trace-out`` writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from .analysis import moore_diameter_lower_bound, network_profile
from .core.bag import BallArrangementGame
from .core.permutations import Permutation
from .emulation import allport_schedule, sdc_slowdown
from .networks import FAMILIES, make_network
from .obs import (
    FLIGHT_DIR_ENV,
    MetricsRegistry,
    TraceCollector,
    Tracer,
    get_registry,
    get_span_buffer,
    get_tracer,
    render_metrics_table,
    render_span_table,
    set_registry,
    use_registry,
    use_tracer,
    write_spans_jsonl,
    write_trace_trees,
)
from .routing import star_distance_between, walk_route


def _parse_permutation(text: str, k: int) -> Permutation:
    """Parse ``"34251"`` or ``"3,4,2,5,1"`` into a Permutation."""
    if "," in text:
        symbols = [int(part) for part in text.split(",")]
    else:
        symbols = [int(ch) for ch in text]
    if len(symbols) != k:
        raise SystemExit(
            f"error: permutation {text!r} has {len(symbols)} symbols, "
            f"network needs {k}"
        )
    return Permutation(symbols)


def _build_network(args):
    if args.family == "IS":
        if args.k is None and (args.l is None or args.n is None):
            raise SystemExit("error: IS needs --k (or --l and --n)")
        return make_network("IS", k=args.k, l=args.l, n=args.n)
    if args.l is None or args.n is None:
        raise SystemExit(f"error: {args.family} needs --l and --n")
    return make_network(args.family, l=args.l, n=args.n)


def _add_network_args(parser):
    parser.add_argument("family", help="network family tag (see `repro families`)")
    parser.add_argument("--l", type=int, help="number of boxes")
    parser.add_argument("--n", type=int, help="balls per box")
    parser.add_argument("--k", type=int, help="symbols (IS networks)")


def _add_table_cache_arg(parser):
    parser.add_argument(
        "--table-cache", metavar="DIR",
        help="reuse compiled tables across runs and processes: attach "
             "the one store file <DIR>/<network>.tables when it is "
             "valid, compile and write it otherwise (materialisable "
             "networks only)")


def _apply_table_cache(net, args) -> None:
    """Attach (or create) the network's compiled-table store."""
    cache_dir = getattr(args, "table_cache", None)
    if not cache_dir or not net.can_compile():
        return
    from .core.tablestore import store_path
    from .io import attach_compiled_tables

    _, mode = attach_compiled_tables(net, cache_dir=cache_dir)
    print(f"table cache: {mode} {store_path(net, cache_dir)}",
          file=sys.stderr)


def _add_obs_args(parser):
    """Observability flags, available on every subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument("--metrics", action="store_true",
                       help="collect metrics; print the table at exit")
    group.add_argument("--trace-out", metavar="FILE",
                       help="write a JSON-lines span trace to FILE")
    group.add_argument("--profile", action="store_true",
                       help="at exit, print calls, total, mean and max "
                            "per span name over the spans --trace-out "
                            "writes; on serve and cluster, memory grows "
                            "by one span per batch until exit")


def _add_shared_tables_arg(parser):
    parser.add_argument(
        "--shared-tables", action="store_true",
        help="one host copy of each family's compiled tables: workers "
             "and replicas attach one read-only store file in /dev/shm "
             "instead of compiling private copies (with --table-cache "
             "they attach its store file in DIR, with or without this "
             "flag)",
    )


def _serving_obs_defaults(args) -> None:
    """Serving commands collect metrics by default (the ``metrics``
    admin op and ``repro top`` are useless against a no-op registry)
    and honor ``--flight-dir`` by exporting it so shard worker
    processes inherit the dump destination."""
    import os

    if not get_registry().enabled:
        set_registry(MetricsRegistry())
    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir:
        os.environ[FLIGHT_DIR_ENV] = str(flight_dir)


def cmd_families(_args) -> int:
    print("family tags: IS, " + ", ".join(FAMILIES))
    print("IS takes --k; every other family takes --l and --n.")
    return 0


def cmd_properties(args) -> int:
    net = _build_network(args)
    _apply_table_cache(net, args)
    exact = net.num_nodes <= args.max_exact_nodes
    with get_tracer().span("cli.properties", network=net.name,
                           exact=exact):
        profile = dict(network_profile(net, exact=exact))
        if exact:
            profile["moore_lb"] = moore_diameter_lower_bound(
                net.degree, net.num_nodes
            )
        try:
            profile["sdc_slowdown"] = sdc_slowdown(net)
        except NotImplementedError:
            profile["sdc_slowdown"] = None
    registry = get_registry()
    if registry.enabled:
        gauge = registry.gauge("net.profile")
        for key in ("nodes", "degree", "diameter", "sdc_slowdown"):
            if profile.get(key) is not None:
                gauge.set(profile[key], network=net.name, property=key)
    if args.json:
        print(json.dumps(profile, indent=1))
        return 0
    for key, value in profile.items():
        if key == "sdc_slowdown" and value is None:
            print(f"{key:<14}: n/a (pure-rotator nucleus)")
        else:
            print(f"{key:<14}: {value}")
    if not exact:
        print(f"(diameter skipped: {net.num_nodes} nodes > "
              f"--max-exact-nodes {args.max_exact_nodes})")
    return 0


def cmd_route(args) -> int:
    net = _build_network(args)
    _apply_table_cache(net, args)
    source = _parse_permutation(args.source, net.k)
    target = (
        _parse_permutation(args.target, net.k)
        if args.target else net.identity
    )
    tracer = get_tracer()
    with tracer.span("cli.route", network=net.name, source=str(source),
                     target=str(target)) as sp:
        from .serve.engine import algorithmic_route, route_payloads

        word = algorithmic_route(
            net, source, target, simplify=not args.raw
        )
        sp.set(hops=len(word))
        # One walk feeds both trace sinks: hop spans in the JSONL trace
        # (--trace-out) and the printed hop list (--trace).
        hops = []
        for dim, node in walk_route(net, source, word):
            with tracer.span("cli.route.hop", dim=dim, node=str(node)):
                hops.append((dim, node))
    if args.json:
        # The exact per-pair payload the serve engine's route op emits
        # (algorithm "algorithmic"), so the two paths diff cleanly.
        (payload,) = route_payloads(
            net, np.asarray([source.symbols]), np.asarray([target.symbols]),
            [word], "algorithmic",
        )
        print(json.dumps(payload, indent=1))
        return 0
    print(f"network       : {net.name}")
    print(f"star distance : {star_distance_between(source, target)}")
    print(f"route ({len(word)} hops): {' '.join(word) if word else '(empty)'}")
    if args.table_cache and net.can_compile():
        # the cached compiled table knows the exact shortest distance,
        # so report how far the algorithmic route is from optimal
        optimal = net.compiled().distance(source, target)
        print(f"optimal       : {optimal} hops (compiled table)")
    if args.trace:
        print(f"  {source}")
        for dim, node in hops:
            print(f"  --{dim}--> {node}")
    return 0


def cmd_schedule(args) -> int:
    net = _build_network(args)
    sched = allport_schedule(net)
    sched.validate()
    print(f"all-port star-emulation schedule for {net.name}")
    print(f"makespan   : {sched.makespan}")
    print(f"utilization: {sched.utilization():.1%}")
    print()
    print(sched.render_grid())
    return 0


def cmd_embed(args) -> int:
    from .embeddings import embed_star, embed_transposition_network

    net = _build_network(args)
    if args.guest == "star":
        emb = embed_star(net)
    elif args.guest == "tn":
        emb = embed_transposition_network(net)
    else:
        raise SystemExit(f"error: unknown guest {args.guest!r} (star | tn)")
    emb.validate()
    metrics = emb.metrics()
    print(f"embedding  : {emb.name}")
    for key, value in metrics.items():
        print(f"{key:<11}: {value}")
    return 0


def cmd_game(args) -> int:
    net = _build_network(args)
    _apply_table_cache(net, args)
    game = BallArrangementGame(net)
    start = game.initial(_parse_permutation(args.start, net.k))
    print(f"game on {net.name}: {game.l} boxes x {game.n} balls")
    print(f"start: {start}")
    moves = game.solve(start)
    state = start
    for move in moves:
        state = state.apply(move)
        print(f"  {move.name:<8} -> {state}")
    print(f"solved in {len(moves)} moves (shortest)")
    return 0


def cmd_report(_args) -> int:
    from .experiments import render_report, run_quick_report

    results = run_quick_report()
    print(render_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_girth(args) -> int:
    from .analysis import girth, is_bipartite_by_parity

    net = _build_network(args)
    print(f"network  : {net.name}")
    print(f"girth    : {girth(net)}")
    print(f"bipartite: {is_bipartite_by_parity(net)} "
          "(all-generators-odd criterion)")
    return 0


def cmd_connectivity(args) -> int:
    from .routing import node_connectivity

    net = _build_network(args)
    value = node_connectivity(net)
    print(f"network            : {net.name}")
    print(f"vertex connectivity: {value} (degree {net.degree})")
    print("maximally fault-tolerant" if value == net.degree
          else f"tolerates {value - 1} node faults")
    return 0


def cmd_mnb(args) -> int:
    from .comm import mnb_lower_bound_sdc, mnb_sdc_hamiltonian
    from .topologies import StarGraph

    if args.family != "star":
        raise SystemExit("error: mnb currently drives star graphs (--k)")
    star = StarGraph(args.k)
    with get_tracer().span("cli.mnb", network=star.name) as sp:
        rounds, complete = mnb_sdc_hamiltonian(star)
        sp.set(rounds=rounds, complete=complete)
    optimal = mnb_lower_bound_sdc(star.num_nodes)
    if args.json:
        print(json.dumps({
            "network": star.name,
            "nodes": star.num_nodes,
            "model": "sdc",
            "rounds": rounds,
            "optimal": optimal,
            "complete": complete,
        }, indent=1))
        return 0
    print(f"SDC MNB on {star.name}: {rounds} rounds "
          f"(optimal {optimal}), "
          f"complete={complete}")
    return 0


def cmd_faults(args) -> int:
    from .experiments import fault_sweep

    rates = [float(r) for r in args.rates.split(",")]
    rows = list(fault_sweep(
        family=args.family, l=args.l, n=args.n, k=args.k,
        rates=rates, fault_kind=args.kind, packets=args.packets,
        policy=args.policy, seed=args.seed,
        max_retries=args.retries, retry_backoff=args.backoff,
        table_cache=getattr(args, "table_cache", None),
    ))
    if args.json:
        print(json.dumps([{
            "network": r.network, "model": r.model, "policy": r.policy,
            "node_rate": r.node_rate, "link_rate": r.link_rate,
            "packets": r.packets, "delivered": r.delivered,
            "dropped": r.dropped, "rerouted": r.rerouted,
            "retries": r.retries, "rounds": r.rounds,
            "mean_latency": r.mean_latency,
            "delivery_ratio": r.delivery_ratio,
        } for r in rows], indent=1))
        return 0
    print(f"fault sweep on {rows[0].network} "
          f"({args.packets} packets, policy={args.policy})")
    print(f"{'rate':>6} {'delivered':>9} {'dropped':>7} {'rerouted':>8} "
          f"{'retries':>7} {'rounds':>6} {'latency':>8} {'ratio':>6}")
    for r in rows:
        rate = r.link_rate if args.kind != "node" else r.node_rate
        print(f"{rate:>6.3f} {r.delivered:>9} {r.dropped:>7} "
              f"{r.rerouted:>8} {r.retries:>7} {r.rounds:>6} "
              f"{r.mean_latency:>8.2f} {r.delivery_ratio:>6.2f}")
    return 0


def cmd_serve(args) -> int:
    """Run the JSON-over-TCP query server until interrupted.

    SIGTERM and SIGINT trigger a graceful shutdown: stop admitting,
    drain every in-flight batch through the back end, print the closed
    accounting, and exit 0 — no request dies mid-batch.
    """
    import asyncio
    import signal

    from .serve import QueryEngine, QueryServer, ShardPool, wire

    _serving_obs_defaults(args)
    if args.shards > 0:
        backend = ShardPool(
            num_shards=args.shards,
            queue_depth=args.queue_depth,
            table_cache=args.table_cache,
            shared_tables=args.shared_tables,
        ).start()
    else:
        backend = QueryEngine(
            table_cache=args.table_cache,
            shared_tables=args.shared_tables,
        )
    if args.warm:
        warm_specs = [json.loads(text) for text in args.warm]
        if isinstance(backend, ShardPool):
            # Build (or validate) the host-shared stores once in this
            # parent before any worker compiles privately.
            for name, mode in backend.prepare_shared_tables(
                warm_specs
            ).items():
                print(f"shared tables: {mode} {name}", file=sys.stderr)
            # Warm the worker processes that will actually serve: a
            # properties op lands on each spec's family-pinned shard
            # and compiles (or cache-loads) the graph there.  Warming
            # an engine in this parent process would do nothing for
            # the shards.
            responses = backend.execute_many([
                {"op": "properties", "network": spec}
                for spec in warm_specs
            ])
            for spec, response in zip(warm_specs, responses):
                if response and response.get("ok"):
                    print(f"warmed {response['result']['network']} "
                          f"(shard {backend.shard_for(spec)})",
                          file=sys.stderr)
                else:
                    error = (response or {}).get("error", "no response")
                    print(f"warm failed for {spec}: {error}",
                          file=sys.stderr)
        else:
            for spec in warm_specs:
                net = backend.network(spec)
                print(f"warmed {net.name}", file=sys.stderr)
    server = QueryServer(
        backend,
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        adaptive=not args.fixed_window,
        target_batch=args.target_batch,
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop_requested.set)
        loop_kind = "uvloop" if wire.UVLOOP_AVAILABLE else "asyncio"
        print(f"serving on {server.host}:{server.port} "
              f"(backend: {type(backend).__name__}, "
              f"loop: {loop_kind})", file=sys.stderr)
        await stop_requested.wait()
        print("shutdown requested; draining in-flight batches...",
              file=sys.stderr)
        flushed = await server.drain(timeout=args.drain_timeout)
        await server.stop()
        if not flushed:
            print("warning: drain deadline passed with work in "
                  "flight", file=sys.stderr)

    try:
        wire.run(_serve())
    except KeyboardInterrupt:
        pass  # signal handler beat us to it on some platforms
    finally:
        if isinstance(backend, ShardPool):
            backend.close()
    stats = server.stats()
    print("final stats:", file=sys.stderr)
    print(json.dumps(stats, indent=1), file=sys.stderr)
    return 0 if stats["closed"] else 1


def cmd_cluster(args) -> int:
    """Run a replicated serving cluster (replicas + front proxy)
    until interrupted; SIGTERM/SIGINT stop it cleanly."""
    import signal
    import threading

    from .cluster import ClusterManager

    _serving_obs_defaults(args)
    warm_specs = tuple(
        json.loads(text) for text in (args.warm or ())
    )
    manager = ClusterManager(
        replicas=args.replicas,
        replication_factor=args.replication_factor,
        host=args.host,
        port=args.port,
        table_cache=args.table_cache,
        warm_specs=warm_specs,
        ring_seed=args.ring_seed,
        shards_per_replica=args.shards_per_replica,
        shared_tables=args.shared_tables,
    )
    stop_requested = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop_requested.set())
    manager.start()
    try:
        for name, replica in sorted(manager.replicas.items()):
            print(f"{name}: {replica.host}:{replica.port}",
                  file=sys.stderr)
        print(f"routing on {manager.host}:{manager.port} "
              f"({args.replicas} replicas, "
              f"rf={args.replication_factor})", file=sys.stderr)
        stop_requested.wait()
        print("shutdown requested; final router stats:",
              file=sys.stderr)
        stats = manager.router.stats()
        print(json.dumps(stats, indent=1), file=sys.stderr)
        return 0 if stats["closed"] else 1
    finally:
        manager.stop()


def cmd_loadgen(args) -> int:
    """Generate a deterministic workload and fire it at a server."""
    from .io import network_spec
    from .serve import (
        QueryEngine,
        ServerThread,
        make_workload,
        replay_trace,
        run_loadgen,
        save_trace,
        stamp_arrivals,
    )

    _serving_obs_defaults(args)
    net = _build_network(args)
    spec = network_spec(net)
    if args.replay:
        requests = list(replay_trace(args.replay))
    else:
        requests = make_workload(
            args.workload, spec, k=net.k, count=args.count,
            seed=args.seed, batch=args.batch, op=args.op,
        )
    if args.rate:
        requests = stamp_arrivals(requests, args.rate, seed=args.seed)
    if args.save_trace:
        count = save_trace(requests, args.save_trace)
        print(f"wrote {count} requests to {args.save_trace}",
              file=sys.stderr)
        if args.host is None and not args.self_serve \
                and not args.cluster:
            return 0

    def _fire(host: str, port: int):
        return run_loadgen(
            host, port, requests,
            concurrency=args.concurrency, timeout=args.timeout,
            replay_speed=args.replay_speed,
            trace_sample=args.trace_sample, trace_seed=args.seed,
            protocol=args.protocol, pipeline=args.pipeline,
        )

    if args.cluster:
        from .cluster import ClusterManager

        with ClusterManager(
            replicas=args.cluster,
            table_cache=args.table_cache,
            warm_specs=(spec,),
            shards_per_replica=args.cluster_shards,
            shared_tables=args.shared_tables,
        ) as cluster:
            result = _fire(cluster.host, cluster.port)
    elif args.self_serve:
        engine = QueryEngine(
            table_cache=args.table_cache,
            shared_tables=args.shared_tables,
        )
        with ServerThread(engine) as srv:
            result = _fire(srv.host, srv.port)
    elif args.host is not None:
        result = _fire(args.host, args.port)
    else:
        raise SystemExit(
            "error: loadgen needs --host (a running `repro serve`), "
            "--self-serve, or --cluster N"
        )
    if args.trace_sample:
        # Assemble every finished span this process saw (client spans,
        # plus router/server/shard spans when the target ran in-process
        # via --cluster or --self-serve) into one tree per trace.  A
        # remote --host target keeps its spans; only client.request
        # roots appear here.
        collector = TraceCollector()
        collector.add_many(get_span_buffer().drain())
        trees = collector.trees()
        print(f"traced {result.traced} requests -> {len(trees)} "
              f"trace trees", file=sys.stderr)
        if args.trace_trees:
            count = write_trace_trees(trees, args.trace_trees)
            print(f"trace trees: {count} -> {args.trace_trees}",
                  file=sys.stderr)
    summary = result.to_dict()
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        for key, value in summary.items():
            if isinstance(value, float):
                print(f"{key:<10}: {value:.3f}")
            else:
                print(f"{key:<10}: {value}")
    if not result.closed:
        print("error: accounting did not close "
              f"(sent {result.sent} != ok {result.ok} + errors "
              f"{result.errors} + timeouts {result.timeouts})",
              file=sys.stderr)
        return 1
    return 0


def _parse_bytes(text: str) -> int:
    """Parse a byte budget like ``64M``, ``512K``, ``2G``, ``1048576``."""
    text = text.strip()
    scale = 1
    suffixes = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if text and text[-1].upper() in suffixes:
        scale = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(float(text) * scale)
    except ValueError:
        raise SystemExit(
            f"error: cannot parse byte size {text!r} (use e.g. 64M)"
        )
    if value <= 0:
        raise SystemExit("error: memory budget must be positive")
    return value


def cmd_frontier(args) -> int:
    """Memory-bounded frontier BFS: layer profile + diameter with no
    node table, optionally followed by sampled pair distances."""
    from .analysis import average_distance_from_layers, sampled_distances
    from .frontier import FrontierBFS, SpillError

    net = _build_network(args)
    budget = _parse_bytes(args.memory_budget)
    if args.resume and args.spill_dir is None:
        raise SystemExit("error: --resume needs --spill-dir")
    if args.keep_run_dir and args.spill_dir is None:
        raise SystemExit("error: --keep-run-dir needs --spill-dir")
    engine = FrontierBFS(
        net,
        memory_budget_bytes=budget,
        spill_dir=args.spill_dir,
        resume=args.resume,
        key_seed=args.key_seed,
        cleanup=not args.keep_run_dir,
    )
    with get_tracer().span("cli.frontier", network=net.name,
                           budget=budget):
        try:
            result = engine.run()
        except SpillError as exc:
            raise SystemExit(f"error: {exc}")
        payload = result.row()
        payload["avg_distance"] = round(
            average_distance_from_layers(result.layer_sizes), 3
        )
        payload["spill"] = {
            "segments": result.spill_segments,
            "bytes": result.spilled_bytes,
            "resumed_layer": result.resumed_from,
        }
        if args.sample_pairs:
            payload["sampled"] = sampled_distances(
                net, pairs=args.sample_pairs, seed=args.seed,
                method="frontier", memory_budget_bytes=budget,
            )
    if args.json:
        print(json.dumps(payload, indent=1))
        return 0
    print(f"network       : {payload['network']}")
    print(f"states        : {payload['num_states']}")
    print(f"diameter      : {payload['diameter']}")
    print(f"avg distance  : {payload['avg_distance']}")
    print(f"layers        : {payload['layer_sizes']}")
    print(f"batches       : {payload['batches']} "
          f"(budget {budget} bytes, chunk {payload['chunk_rows']} rows)")
    print(f"dedup ratio   : {payload['dedup_ratio']}")
    if payload["spill_segments"]:
        print(f"spill         : {payload['spill_segments']} segments, "
              f"{payload['spilled_bytes']} bytes")
    if payload.get("resumed_from") is not None:
        print(f"resumed from  : layer {payload['resumed_from']}")
    print(f"elapsed       : {payload['elapsed_seconds']} s")
    if args.sample_pairs:
        sampled = payload["sampled"]
        lo, hi = sampled["ci95"]
        print(f"sampled pairs : {sampled['pairs']} "
              f"mean {sampled['mean']:.3f} "
              f"ci95 [{lo:.3f}, {hi:.3f}] "
              f"min {sampled['min']} max {sampled['max']}")
    return 0


def cmd_top(args) -> int:
    """Live dashboard over a running server or router's admin ops.

    Each refresh issues one ``stats`` and one ``metrics`` op down a
    fresh connection — both answered inline by the server/router even
    when the backend is wedged, which is exactly when you need them.
    ``--once`` prints a single snapshot and exits (scripts, CI).
    """
    import time as time_mod

    from .serve.workload import query_server

    def _fetch():
        responses = query_server(
            args.host, args.port,
            [{"op": "stats"}, {"op": "metrics"}],
            timeout=args.timeout,
        )
        stats = (responses[0].get("result")
                 if responses[0].get("ok") else None)
        metrics = (responses[1].get("result")
                   if responses[1].get("ok") else None)
        return stats, metrics

    def _fmt(value, nd=2):
        return "-" if value is None else f"{value:.{nd}f}"

    def _render(stats, metrics) -> str:
        lines = [f"repro top — {args.host}:{args.port}"]
        if stats:
            lines.append(
                f"qps {_fmt(stats.get('qps'), 1)}  "
                f"p50 {_fmt(stats.get('p50_ms'))} ms  "
                f"p99 {_fmt(stats.get('p99_ms'))} ms  "
                f"completed {stats.get('completed', 0)}  "
                f"pending {stats.get('pending', stats.get('inflight', 0))}"
            )
            replicas = stats.get("replicas")
            if isinstance(replicas, dict):  # router: replica health
                for name, snap in sorted(replicas.items()):
                    state = ("DRAINING" if snap.get("draining")
                             else "UP" if snap.get("up") else "DOWN")
                    lines.append(
                        f"  {name:<12} {state:<8} "
                        f"inflight {snap.get('inflight', 0):>4}  "
                        f"transitions {snap.get('transitions', 0)}"
                    )
            cache = stats.get("cache")
            if isinstance(cache, dict):  # single server: engine caches
                lines.append("cache: " + "  ".join(
                    f"{key}={value}" for key, value in cache.items()
                ))
        else:
            lines.append("stats: unavailable")
        if metrics:
            for row in metrics.get("gauges", {}).get(
                "serve.cache_entries", []
            ):
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted(row.get("labels", {}).items())
                )
                lines.append(
                    f"  serve.cache_entries{{{labels}}} = "
                    f"{row.get('value', 0):g}"
                )
            for row in metrics.get("gauges", {}).get(
                "serve.table_bytes", []
            ):
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted(row.get("labels", {}).items())
                )
                lines.append(
                    f"  serve.table_bytes{{{labels}}} = "
                    f"{row.get('value', 0):g}"
                )
            for row in metrics.get("counters", {}).get(
                "serve.table_attach", []
            ):
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted(row.get("labels", {}).items())
                )
                lines.append(
                    f"  serve.table_attach{{{labels}}} = "
                    f"{row.get('value', 0):g}"
                )
            hist_rows = [
                (name, row)
                for name, rows in metrics.get("histograms", {}).items()
                for row in rows
            ]
            hist_rows.sort(
                key=lambda item: item[1].get("count", 0), reverse=True
            )
            if hist_rows:
                lines.append(
                    f"{'histogram':<26} {'labels':<28} "
                    f"{'count':>7} {'p50':>9} {'p99':>9}"
                )
                for name, row in hist_rows[:args.rows]:
                    labels = ",".join(
                        f"{k}={v}"
                        for k, v in sorted(row.get("labels", {}).items())
                    )
                    lines.append(
                        f"{name:<26} {labels:<28.28} "
                        f"{row.get('count', 0):>7} "
                        f"{_fmt(row.get('p50')):>9} "
                        f"{_fmt(row.get('p99')):>9}"
                    )
        return "\n".join(lines)

    try:
        while True:
            try:
                stats, metrics = _fetch()
            except (OSError, ValueError) as exc:
                print(f"error: cannot reach {args.host}:{args.port}: "
                      f"{exc}", file=sys.stderr)
                if args.once:
                    return 1
                time_mod.sleep(args.interval)
                continue
            if not args.once:
                print("\x1b[2J\x1b[H", end="")  # clear + home
            print(_render(stats, metrics), flush=True)
            if args.once:
                return 0
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Super Cayley graphs: routing, embeddings, emulation "
                    "(PaCT 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_obs_args(p)
        return p

    add_command("families", help="list network family tags")

    p = add_command("properties", help="degree/diameter/profile")
    _add_network_args(p)
    _add_table_cache_arg(p)
    p.add_argument("--max-exact-nodes", type=int, default=50_000,
                   help="BFS diameter only below this size")
    p.add_argument("--json", action="store_true",
                   help="emit the profile as JSON")

    p = add_command("route", help="route between two nodes")
    _add_network_args(p)
    _add_table_cache_arg(p)
    p.add_argument("--source", required=True, help="e.g. 34251")
    p.add_argument("--target", help="default: identity")
    p.add_argument("--raw", action="store_true",
                   help="skip peephole simplification")
    p.add_argument("--trace", action="store_true", help="print every hop")
    p.add_argument("--json", action="store_true",
                   help="emit the serve-engine route payload as JSON")

    p = add_command("schedule", help="Figure-1-style all-port schedule")
    _add_network_args(p)

    p = add_command("embed", help="measure a Section 5 embedding")
    p.add_argument("guest", help="star | tn")
    _add_network_args(p)

    p = add_command("game", help="solve a ball-arrangement game")
    _add_network_args(p)
    _add_table_cache_arg(p)
    p.add_argument("--start", required=True, help="initial configuration")

    p = add_command("mnb", help="run the SDC multinode broadcast")
    p.add_argument("family", help="star")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON")

    p = add_command("faults", help="fault-rate sweep on the packet simulator")
    _add_network_args(p)
    _add_table_cache_arg(p)
    p.add_argument("--rates", default="0.0,0.02,0.05,0.1",
                   help="comma-separated fault rates to sweep")
    p.add_argument("--kind", choices=("link", "node", "both"),
                   default="link", help="what fails (default: link)")
    p.add_argument("--packets", type=int, default=100,
                   help="random uniform-traffic packets per rate")
    p.add_argument("--policy", choices=("drop", "reroute", "retry"),
                   default="reroute", help="per-packet fault policy")
    p.add_argument("--retries", type=int, default=3,
                   help="max retries per packet (retry policy)")
    p.add_argument("--backoff", type=int, default=1,
                   help="rounds between retries (retry policy)")
    p.add_argument("--seed", type=int, default=0,
                   help="traffic + fault-schedule seed")
    p.add_argument("--json", action="store_true",
                   help="emit the sweep rows as JSON")

    p = add_command("serve", help="serve batched graph queries over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--shards", type=int, default=0,
                   help="worker processes (0 = in-process engine)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard dispatch queue bound (backpressure)")
    p.add_argument("--batch-window", type=float, default=0.002,
                   help="micro-batching window in seconds")
    p.add_argument("--fixed-window", action="store_true",
                   help="always sleep the full --batch-window instead "
                        "of adapting it to the arrival rate")
    p.add_argument("--target-batch", type=int, default=64,
                   help="batch size the adaptive window aims to "
                        "accumulate before cutting")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="admission-control bound on parked requests")
    p.add_argument("--request-timeout", type=float, default=5.0,
                   help="per-request deadline in seconds")
    p.add_argument("--warm", action="append", metavar="SPEC",
                   help='prewarm a network, e.g. '
                        '\'{"family": "MS", "l": 2, "n": 3}\'')
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to flush in-flight batches on "
                        "SIGTERM/SIGINT before stopping")
    p.add_argument("--flight-dir", metavar="DIR",
                   help="dump flight-recorder rings (recent spans + "
                        "events) into DIR on drain/kill/worker crash")
    _add_table_cache_arg(p)
    _add_shared_tables_arg(p)

    p = add_command(
        "cluster",
        help="serve through a replicated cluster with a front proxy",
    )
    p.add_argument("--replicas", type=int, default=3,
                   help="serving replicas to launch")
    p.add_argument("--replication-factor", type=int, default=2,
                   help="replicas per family key on the hash ring")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7420,
                   help="router TCP port (0 = ephemeral); replicas "
                        "take ephemeral ports")
    p.add_argument("--warm", action="append", metavar="SPEC",
                   help="prewarm a network on every replica")
    p.add_argument("--ring-seed", type=int, default=0,
                   help="consistent-hash ring seed")
    p.add_argument("--shards-per-replica", type=int, default=0,
                   help="shard worker processes behind each replica "
                        "(0 = in-process engines)")
    p.add_argument("--flight-dir", metavar="DIR",
                   help="dump flight-recorder rings (recent spans + "
                        "events) into DIR on drain/kill/worker crash")
    _add_table_cache_arg(p)
    _add_shared_tables_arg(p)

    p = add_command("loadgen", help="fire a seeded workload at a server")
    _add_network_args(p)
    _add_table_cache_arg(p)
    _add_shared_tables_arg(p)
    p.add_argument("--host", help="server host (omit with --self-serve)")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--self-serve", action="store_true",
                   help="spin up an in-process server for the run")
    p.add_argument("--cluster", type=int, metavar="N",
                   help="spin up an in-process N-replica cluster and "
                        "fire through its router")
    p.add_argument("--workload",
                   choices=("uniform", "hotspot", "transpose"),
                   default="uniform")
    p.add_argument("--op", default="distance",
                   help="request op for generated pairs")
    p.add_argument("--count", type=int, default=200,
                   help="total pairs to generate")
    p.add_argument("--batch", type=int, default=8,
                   help="pairs per request")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concurrency", type=int, default=4,
                   help="concurrent closed-loop connections")
    p.add_argument("--protocol", choices=("json", "binary"),
                   default="json",
                   help="wire encoding: newline JSON or length-"
                        "prefixed binary frames")
    p.add_argument("--pipeline", type=int, default=1,
                   help="requests kept outstanding per connection "
                        "(1 = closed-loop send/await)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-response client timeout in seconds")
    p.add_argument("--replay", metavar="FILE",
                   help="replay a JSONL trace instead of generating")
    p.add_argument("--save-trace", metavar="FILE",
                   help="write the generated workload as a JSONL trace")
    p.add_argument("--rate", type=float,
                   help="stamp Poisson arrival times (requests/sec) "
                        "onto the workload before firing or saving")
    p.add_argument("--replay-speed", type=float,
                   help="honor recorded `ts` arrival stamps, scaled "
                        "(1.0 = real time, 2.0 = twice as fast)")
    p.add_argument("--trace-sample", type=float, metavar="RATE",
                   help="sample this fraction (0..1) of requests for "
                        "end-to-end distributed tracing")
    p.add_argument("--trace-trees", metavar="FILE",
                   help="write merged trace trees (one JSON object "
                        "per trace) to FILE; needs --trace-sample")
    p.add_argument("--cluster-shards", type=int, default=0,
                   help="with --cluster: shard worker processes per "
                        "replica (0 = in-process engines)")
    p.add_argument("--flight-dir", metavar="DIR",
                   help="dump flight-recorder rings into DIR on "
                        "drain/kill/worker crash")
    p.add_argument("--json", action="store_true",
                   help="emit the loadgen summary as JSON")

    p = add_command(
        "frontier",
        help="memory-bounded frontier BFS (no node table): layer "
             "profile, diameter, sampled pair distances",
    )
    _add_network_args(p)
    p.add_argument("--memory-budget", default="64M", metavar="BYTES",
                   help="working-set budget, with K/M/G suffix "
                        "(default: 64M): sizes the batches and the spill "
                        "threshold; the visited set is a k!-bit map from "
                        "10M at k = 11 and 115M at k = 12 for a profile, "
                        "from 20M and 229M for pair distances; without "
                        "--spill-dir the layers stay in RAM, k bytes per "
                        "state")
    p.add_argument("--key-seed", type=int, default=0, metavar="SEED",
                   help="seed for the hashed state-key path (k > 20)")
    p.add_argument("--spill-dir", metavar="DIR",
                   help="stream frontiers through .npy segments under "
                        "DIR; crash-resumable via --resume")
    p.add_argument("--resume", action="store_true",
                   help="continue from the last journaled layer in "
                        "--spill-dir instead of starting over")
    p.add_argument("--keep-run-dir", action="store_true",
                   help="keep the spill run dir after a successful run "
                        "(default: cleaned on success, kept on crash); "
                        "needs --spill-dir")
    p.add_argument("--sample-pairs", type=int, metavar="N",
                   help="also sample N pair distances via bidirectional "
                        "search (mean + 95%% CI)")
    p.add_argument("--seed", type=int, default=0,
                   help="pair-sampling seed")
    p.add_argument("--json", action="store_true",
                   help="emit the run summary as JSON; includes a "
                        "\"spill\" object {segments: int, bytes: int, "
                        "resumed_layer: int|null}")

    p = add_command("top", help="live qps/latency/replica dashboard "
                                "for a running server or cluster")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7420,
                   help="router (7420) or server (7421) port")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--rows", type=int, default=8,
                   help="histogram series to show, busiest first")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="admin-op response timeout in seconds")

    p = add_command("girth", help="girth + bipartiteness")
    _add_network_args(p)

    p = add_command("connectivity", help="exact vertex connectivity")
    _add_network_args(p)

    add_command(
        "report",
        help="run the quick paper-reproduction report (PASS/FAIL table)",
    )

    return parser


COMMANDS = {
    "families": cmd_families,
    "properties": cmd_properties,
    "route": cmd_route,
    "schedule": cmd_schedule,
    "embed": cmd_embed,
    "game": cmd_game,
    "mnb": cmd_mnb,
    "faults": cmd_faults,
    "frontier": cmd_frontier,
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "loadgen": cmd_loadgen,
    "top": cmd_top,
    "girth": cmd_girth,
    "connectivity": cmd_connectivity,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # --metrics / --trace-out / --profile switch the process-global
    # no-ops for real collectors around the command; results print (or
    # write) after the command finishes, even if it raises; --profile
    # summarises the same tracer's spans.
    tracer = Tracer() if (args.trace_out or getattr(args, "trace", False)
                          or args.profile) else None
    registry = MetricsRegistry() if args.metrics else None

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if registry is not None:
            stack.enter_context(use_registry(registry))
        # serving commands install a live registry by default
        # (_serving_obs_defaults); restore the caller's on the way out
        # so in-process invocations don't leak process-global state
        prev_registry = get_registry()
        try:
            code = COMMANDS[args.command](args)
        finally:
            if get_registry() is not prev_registry:
                set_registry(prev_registry)
            # Observability output goes to stderr so --json (and any
            # other machine-readable stdout) stays pipeable.
            if tracer is not None and args.trace_out:
                try:
                    count = write_spans_jsonl(tracer.spans, args.trace_out)
                except OSError as exc:
                    print(f"error: cannot write trace: {exc}",
                          file=sys.stderr)
                    code = 1
                else:
                    print(f"trace: {count} spans -> {args.trace_out}",
                          file=sys.stderr)
            if registry is not None:
                print(render_metrics_table(registry), file=sys.stderr)
            if args.profile:
                print(render_span_table(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
