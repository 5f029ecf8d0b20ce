"""Experiment runners: structured, reusable versions of the paper's
evaluation sweeps.

Every sweep row is computed inside a tracer span (``sweep.<name>`` with
the instance parameters as attributes), so running a full report with a
:class:`repro.obs.Tracer` installed yields a queryable trace tree: one
span per row, containing the schedule/embedding/simulation spans that
row triggered.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..obs import get_tracer

from ..analysis import network_profile
from ..comm import (
    mnb_allport_broadcast_trees,
    mnb_lower_bound_allport,
    te_emulated,
    te_lower_bound_allport,
    te_star,
)
from ..embeddings import embed_star, embed_transposition_network
from ..emulation import (
    allport_schedule,
    theorem4_slowdown,
    theorem5_slowdown,
)
from ..core.permutations import Permutation
from ..networks import make_network
from ..topologies import StarGraph


@dataclass(frozen=True)
class EmulationRow:
    """One instance of an emulation sweep."""

    network: str
    l: int
    n: int
    measured: int
    predicted: int

    @property
    def matches(self) -> bool:
        return self.measured == self.predicted


@dataclass(frozen=True)
class EmbeddingRow:
    """Measured embedding metrics for one host."""

    guest: str
    host: str
    load: int
    expansion: float
    dilation: int
    congestion: Optional[int] = None


@dataclass(frozen=True)
class TaskRow:
    """A communication-task measurement against its lower bound."""

    network: str
    nodes: int
    degree: int
    rounds: int
    lower_bound: float

    @property
    def ratio(self) -> float:
        return self.rounds / self.lower_bound


@dataclass(frozen=True)
class Figure1Row:
    """One Figure 1 panel."""

    network: str
    star_k: int
    makespan: int
    utilization: float
    per_step: Sequence[float]
    grid: str


def theorem4_sweep(
    l_range: Iterable[int] = range(2, 9),
    n_range: Iterable[int] = range(1, 6),
    families: Sequence[str] = ("MS", "complete-RS"),
    validate: bool = True,
) -> Iterator[EmulationRow]:
    """Theorem 4's slowdown surface: ``max(2n, l+1)`` vs. measured."""
    for l in l_range:
        for n in n_range:
            for family in families:
                with get_tracer().span(
                    "sweep.theorem4", family=family, l=l, n=n
                ) as sp:
                    net = make_network(family, l=l, n=n)
                    sched = allport_schedule(net)
                    if validate:
                        sched.validate()
                    sp.set(makespan=sched.makespan)
                yield EmulationRow(
                    net.name, l, n, sched.makespan, theorem4_slowdown(l, n)
                )


def theorem5_sweep(
    l_range: Iterable[int] = range(2, 8),
    n_range: Iterable[int] = range(1, 5),
    families: Sequence[str] = ("MIS", "complete-RIS"),
    validate: bool = True,
) -> Iterator[EmulationRow]:
    """Theorem 5's surface (the degenerate (2,2) instance measures
    predicted + 1; see EXPERIMENTS.md D1)."""
    for l in l_range:
        for n in n_range:
            for family in families:
                with get_tracer().span(
                    "sweep.theorem5", family=family, l=l, n=n
                ) as sp:
                    net = make_network(family, l=l, n=n)
                    sched = allport_schedule(net)
                    if validate:
                        sched.validate()
                    sp.set(makespan=sched.makespan)
                yield EmulationRow(
                    net.name, l, n, sched.makespan, theorem5_slowdown(l, n)
                )


def star_embedding_sweep(
    instances: Sequence = (("MS", 2, 2), ("complete-RS", 2, 2),
                           ("IS", None, None), ("MIS", 2, 2),
                           ("complete-RIS", 2, 2)),
    k_for_is: int = 5,
    with_congestion: bool = True,
) -> Iterator[EmbeddingRow]:
    """Theorems 1-3: star-embedding metrics per family."""
    for family, l, n in instances:
        with get_tracer().span(
            "sweep.star_embedding", family=family, l=l, n=n
        ) as sp:
            net = (make_network("IS", k=k_for_is) if family == "IS"
                   else make_network(family, l=l, n=n))
            emb = embed_star(net)
            row = EmbeddingRow(
                guest=f"star({net.k})",
                host=net.name,
                load=emb.load(),
                expansion=emb.expansion(),
                dilation=emb.dilation(),
                congestion=emb.congestion() if with_congestion else None,
            )
            sp.set(dilation=row.dilation)
        yield row


def tn_embedding_sweep(
    instances: Sequence = (("MS", 2, 2), ("MS", 3, 2),
                           ("complete-RS", 2, 2), ("IS", None, None)),
    k_for_is: int = 5,
) -> Iterator[EmbeddingRow]:
    """Theorems 6-7: transposition-network embedding metrics."""
    for family, l, n in instances:
        with get_tracer().span(
            "sweep.tn_embedding", family=family, l=l, n=n
        ) as sp:
            net = (make_network("IS", k=k_for_is) if family == "IS"
                   else make_network(family, l=l, n=n))
            emb = embed_transposition_network(net)
            row = EmbeddingRow(
                guest=f"TN({net.k})",
                host=net.name,
                load=emb.load(),
                expansion=emb.expansion(),
                dilation=emb.dilation(),
            )
            sp.set(dilation=row.dilation)
        yield row


def mnb_sweep(star_ks: Iterable[int] = (3, 4, 5),
              sc_instances: Sequence = (("MS", 2, 2),)) -> Iterator[TaskRow]:
    """Corollary 2: all-port MNB rounds vs. ``ceil((N-1)/d)``."""
    for k in star_ks:
        star = StarGraph(k)
        with get_tracer().span("sweep.mnb", network=star.name) as sp:
            rounds = mnb_allport_broadcast_trees(star)
            sp.set(rounds=rounds)
        yield TaskRow(
            star.name, star.num_nodes, star.degree, rounds,
            mnb_lower_bound_allport(star.num_nodes, star.degree),
        )
    for family, l, n in sc_instances:
        net = make_network(family, l=l, n=n)
        with get_tracer().span("sweep.mnb", network=net.name) as sp:
            rounds = mnb_allport_broadcast_trees(net)
            sp.set(rounds=rounds)
        yield TaskRow(
            net.name, net.num_nodes, net.degree, rounds,
            mnb_lower_bound_allport(net.num_nodes, net.degree),
        )


def te_sweep(star_ks: Iterable[int] = (3, 4, 5),
             sc_instances: Sequence = (("MS", 2, 2),)) -> Iterator[TaskRow]:
    """Corollary 3: TE rounds vs. the counting bound."""
    for k in star_ks:
        star = StarGraph(k)
        with get_tracer().span("sweep.te", network=star.name) as sp:
            result = te_star(k)
            sp.set(rounds=result.rounds)
        yield TaskRow(
            star.name, star.num_nodes, star.degree, result.rounds,
            te_lower_bound_allport(
                star.num_nodes, star.degree, star.average_distance()
            ),
        )
    for family, l, n in sc_instances:
        net = make_network(family, l=l, n=n)
        with get_tracer().span("sweep.te", network=net.name) as sp:
            result = te_emulated(net)
            sp.set(rounds=result.rounds)
        yield TaskRow(
            net.name, net.num_nodes, net.degree, result.rounds,
            te_lower_bound_allport(
                net.num_nodes, net.degree, net.average_distance()
            ),
        )


def figure1_panels(
    panels: Sequence = (("MS", 4, 3, 13), ("MS", 5, 3, 16)),
) -> Iterator[Figure1Row]:
    """Regenerate Figure 1's panels (and any custom ones)."""
    for family, l, n, star_k in panels:
        with get_tracer().span(
            "sweep.figure1", family=family, l=l, n=n
        ) as sp:
            net = make_network(family, l=l, n=n)
            assert net.k == star_k
            sched = allport_schedule(net)
            sched.validate()
            sp.set(makespan=sched.makespan)
        yield Figure1Row(
            network=net.name,
            star_k=star_k,
            makespan=sched.makespan,
            utilization=sched.utilization(),
            per_step=tuple(sched.per_step_utilization()),
            grid=sched.render_grid(),
        )


@dataclass(frozen=True)
class FaultRow:
    """One point of a fault-rate → delivery/latency curve."""

    network: str
    model: str
    policy: str
    node_rate: float
    link_rate: float
    packets: int
    delivered: int
    dropped: int
    rerouted: int
    retries: int
    rounds: int
    mean_latency: float

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.packets if self.packets else 1.0

    @property
    def reconciles(self) -> bool:
        """Delivery accounting closes: every packet was delivered or
        dropped, nothing vanished."""
        return self.delivered + self.dropped == self.packets


def fault_sweep(
    family: str = "MS",
    l: Optional[int] = 2,
    n: Optional[int] = 2,
    k: Optional[int] = None,
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    fault_kind: str = "link",
    packets: int = 100,
    policy: Union[str, "FaultPolicy"] = "reroute",
    model: Optional["CommModel"] = None,
    seed: int = 0,
    at_round: int = 1,
    max_retries: int = 3,
    retry_backoff: int = 1,
    table_cache: Optional[str] = None,
) -> Iterator[FaultRow]:
    """Sweep fault rates on one network instance: random uniform
    traffic is shortest-path routed fault-free, then the injector fires
    at ``at_round`` and the per-packet ``policy`` handles the damage.

    ``fault_kind`` is ``"link"``, ``"node"``, or ``"both"`` (anything
    else raises ``ValueError``); traffic endpoints are protected from
    node failures so delivery stays well-defined.  The network, the
    traffic and its shortest-path words are built once and shared by
    every rate.  Packets are routed via the compiled shortest-path tree
    (``table_cache`` attaches the tables' on-disk store once, see
    :func:`repro.io.attach_compiled_tables`; every rate's span carries
    that attach's mode).  Yields one :class:`FaultRow` per rate.
    """
    from ..comm.simulator import PacketSimulator
    from ..emulation.models import CommModel
    from ..faults import FaultInjector, FaultPolicy
    from ..networks import make_network

    if fault_kind not in ("link", "node", "both"):
        raise ValueError(
            f"fault_kind must be 'link', 'node' or 'both', "
            f"not {fault_kind!r}"
        )
    model = model or CommModel.ALL_PORT
    policy = FaultPolicy(policy)
    net = (make_network("IS", k=k) if family == "IS"
           else make_network(family, l=l, n=n))
    cache_mode = None
    if table_cache is not None and net.can_compile():
        from ..io import attach_compiled_tables

        _, cache_mode = attach_compiled_tables(net, cache_dir=table_cache)
    rng = random.Random(seed)
    pairs = []
    for _ in range(packets):
        source = Permutation.random(net.k, rng)
        target = Permutation.random(net.k, rng)
        pairs.append((source, target))
    endpoints = [p for pair in pairs for p in pair]
    words = [
        [d for d, _node in net.shortest_path(source, target)]
        for source, target in pairs
    ]
    for rate in rates:
        node_rate = rate if fault_kind in ("node", "both") else 0.0
        link_rate = rate if fault_kind in ("link", "both") else 0.0
        with get_tracer().span(
            "sweep.faults", family=family, l=l, n=n, rate=rate,
            policy=policy.value,
        ) as sp:
            if cache_mode is not None:
                sp.set(table_cache=cache_mode)
            injector = FaultInjector.random(
                net,
                node_rate=node_rate,
                link_rate=link_rate,
                seed=seed,
                at_round=at_round,
                protect=endpoints,
            ) if rate > 0 else None
            sim = PacketSimulator(
                net, model,
                injector=injector,
                fault_policy=policy,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
            )
            for (source, _target), word in zip(pairs, words):
                sim.submit(source, word)
            result = sim.run()
            latencies = [
                p.delivered_round for p in sim.packets
                if p.delivered_round is not None
            ]
            row = FaultRow(
                network=net.name,
                model=model.value,
                policy=policy.value,
                node_rate=node_rate,
                link_rate=link_rate,
                packets=packets,
                delivered=result.delivered,
                dropped=result.dropped,
                rerouted=result.rerouted,
                retries=result.retries,
                rounds=result.rounds,
                mean_latency=(
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            )
            sp.set(delivered=row.delivered, dropped=row.dropped,
                   rounds=row.rounds)
        yield row


def properties_sweep(
    instances: Sequence = (("MS", 2, 2), ("RS", 2, 2), ("MR", 2, 2),
                           ("IS", None, None), ("MIS", 2, 2)),
    k_for_is: int = 4,
    exact: bool = True,
    table_cache: Optional[str] = None,
) -> Iterator[dict]:
    """Section 2's property table, row per instance.

    ``table_cache`` names a directory of compiled-table stores (see
    :func:`repro.io.attach_compiled_tables`): materialisable instances
    attach their tables instead of recomputing them, and first-time
    instances write theirs for the next sweep.
    """
    for family, l, n in instances:
        with get_tracer().span(
            "sweep.properties", family=family, l=l, n=n
        ) as sp:
            net = (make_network("IS", k=k_for_is) if family == "IS"
                   else make_network(family, l=l, n=n))
            if table_cache is not None and net.can_compile():
                from ..io import attach_compiled_tables

                _, mode = attach_compiled_tables(net, cache_dir=table_cache)
                sp.set(table_cache=mode)
            row = network_profile(net, exact=exact)
        yield row


@dataclass(frozen=True)
class ServeRow:
    """One workload's serving measurement (qps + latency quantiles)."""

    network: str
    workload: str
    requests: int
    batch: int
    concurrency: int
    ok: int
    errors: int
    timeouts: int
    qps: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    traced: int = 0
    protocol: str = "json"
    pipeline: int = 1

    @property
    def closed(self) -> bool:
        """Loadgen accounting closes: every request sent came back."""
        return self.requests == self.ok + self.errors + self.timeouts


def serve_sweep(
    family: str = "MS",
    l: Optional[int] = 2,
    n: Optional[int] = 2,
    k: Optional[int] = None,
    workloads: Sequence[str] = ("uniform", "hotspot", "transpose"),
    count: int = 200,
    batch: int = 8,
    concurrency: int = 4,
    seed: int = 0,
    table_cache: Optional[str] = None,
    shared_tables: bool = False,
    trace_sample: Optional[float] = None,
    protocol: str = "json",
    pipeline: int = 1,
) -> Iterator[ServeRow]:
    """Serve one network instance through a live in-process server and
    drive each workload shape through the loadgen, row per workload.

    Every row's accounting must close (``ServeRow.closed``) — the sweep
    is as much a correctness probe of the serving path as a throughput
    measurement.  ``shared_tables`` runs the engine attach-first on a
    host-shared table store (:func:`repro.io.attach_compiled_tables`).
    ``protocol``/``pipeline`` select the loadgen's wire encoding and
    per-connection pipelining depth (see
    :func:`repro.serve.workload.run_loadgen`).
    """
    from ..io import network_spec
    from ..serve import (
        QueryEngine,
        ServerThread,
        make_workload,
        run_loadgen,
    )

    net = (make_network("IS", k=k) if family == "IS"
           else make_network(family, l=l, n=n))
    spec = network_spec(net)
    engine = QueryEngine(
        table_cache=table_cache, shared_tables=shared_tables
    )
    with ServerThread(engine) as server:
        for workload in workloads:
            with get_tracer().span(
                "sweep.serve", network=net.name, workload=workload,
            ) as sp:
                requests = make_workload(
                    workload, spec, k=net.k, count=count,
                    seed=seed, batch=batch,
                )
                result = run_loadgen(
                    server.host, server.port, requests,
                    concurrency=concurrency,
                    trace_sample=trace_sample, trace_seed=seed,
                    protocol=protocol, pipeline=pipeline,
                )
                sp.set(qps=result.qps, ok=result.ok)
            yield ServeRow(
                network=net.name,
                workload=workload,
                requests=result.sent,
                batch=batch,
                concurrency=concurrency,
                ok=result.ok,
                errors=result.errors,
                timeouts=result.timeouts,
                qps=result.qps,
                p50_ms=result.p50_ms,
                p99_ms=result.p99_ms,
                traced=result.traced,
                protocol=protocol,
                pipeline=pipeline,
            )


@dataclass(frozen=True)
class ClusterRow:
    """One chaos scenario's cluster measurement.

    ``availability`` is the fraction of requests answered OK despite
    the scenario's kills; ``retries``/``failovers`` count the router's
    recovery work; ``moved_keys`` tracks consistent-hash churn.
    """

    network: str
    scenario: str
    replicas: int
    replication_factor: int
    requests: int
    ok: int
    errors: int
    timeouts: int
    kills: int
    restarts: int
    retries: int
    failovers: int
    moved_keys: int
    qps: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    traced: int = 0

    @property
    def closed(self) -> bool:
        """Cluster-wide accounting closes under chaos."""
        return self.requests == self.ok + self.errors + self.timeouts

    @property
    def availability(self) -> float:
        return self.ok / self.requests if self.requests else 1.0


def cluster_sweep(
    family: str = "MS",
    l: Optional[int] = 2,
    n: Optional[int] = 2,
    k: Optional[int] = None,
    scenarios: Sequence[str] = ("steady", "kill-primary", "rolling"),
    replicas: int = 3,
    replication_factor: int = 2,
    count: int = 200,
    batch: int = 8,
    concurrency: int = 4,
    seed: int = 0,
    table_cache: Optional[str] = None,
    trace_sample: Optional[float] = None,
    shards_per_replica: int = 0,
) -> Iterator[ClusterRow]:
    """Drive a replicated cluster through seeded chaos scenarios, one
    row per scenario:

    * ``steady`` — no faults; the replicated baseline;
    * ``kill-primary`` — abruptly kill the workload key's ring primary
      mid-run, then restart it; exercises failover retry;
    * ``rolling`` — rolling drain + restart of every replica while the
      load generator runs; must lose nothing.

    Rows must stay ``closed`` and, for drain-based scenarios, keep
    ``errors == 0`` — the sweep doubles as the cluster's correctness
    probe.
    """
    import threading

    from ..cluster import ClusterManager
    from ..io import network_spec
    from ..serve import make_workload, run_loadgen

    net = (make_network("IS", k=k) if family == "IS"
           else make_network(family, l=l, n=n))
    spec = network_spec(net)
    for scenario in scenarios:
        with get_tracer().span(
            "sweep.cluster", network=net.name, scenario=scenario,
        ) as sp:
            requests = make_workload(
                "uniform", spec, k=net.k, count=count,
                seed=seed, batch=batch,
            )
            with ClusterManager(
                replicas=replicas,
                replication_factor=replication_factor,
                table_cache=table_cache,
                warm_specs=(spec,),
                shards_per_replica=shards_per_replica,
            ) as cluster:
                chaos: Optional[threading.Thread] = None
                if scenario == "kill-primary":
                    # single-family traffic pins to the ring primary —
                    # killing anything else would exercise nothing
                    victim = cluster.router.router.ring.primary(family)

                    def _chaos(victim=victim):
                        time.sleep(0.05)
                        cluster.kill(victim)
                        cluster.restart(victim)

                    chaos = threading.Thread(target=_chaos, daemon=True)
                    chaos.start()
                elif scenario == "rolling":
                    chaos = threading.Thread(
                        target=cluster.rolling_restart, daemon=True
                    )
                    chaos.start()
                result = run_loadgen(
                    cluster.host, cluster.port, requests,
                    concurrency=concurrency,
                    trace_sample=trace_sample, trace_seed=seed,
                )
                if chaos is not None:
                    chaos.join(timeout=30.0)
                stats = cluster.stats()
            sp.set(qps=result.qps, ok=result.ok)
        router_stats = stats["router"]
        replica_stats = stats["replicas"]
        yield ClusterRow(
            network=net.name,
            scenario=scenario,
            replicas=replicas,
            replication_factor=replication_factor,
            requests=result.sent,
            ok=result.ok,
            errors=result.errors,
            timeouts=result.timeouts,
            kills=sum(r["kills"] for r in replica_stats.values()),
            restarts=sum(r["restarts"] for r in replica_stats.values()),
            retries=router_stats["retries"],
            failovers=router_stats["failovers"],
            moved_keys=router_stats["ring_moved_keys"],
            qps=result.qps,
            p50_ms=result.p50_ms,
            p99_ms=result.p99_ms,
            traced=result.traced,
        )


@dataclass(frozen=True)
class FrontierRow:
    """One instance's memory-bounded frontier exploration."""

    network: str
    k: int
    num_states: int
    diameter: int
    layer_sizes: Sequence[int]
    batches: int
    dedup_ratio: float
    memory_budget_bytes: int
    spill_segments: int
    spilled_bytes: int
    exact_keys: bool
    elapsed_seconds: float
    avg_distance: float
    resumed_from: Optional[int] = None

    @property
    def explored_all(self) -> bool:
        """The search reached every state the family generates — for
        the ten (generating) families, all ``k!`` of them."""
        return self.num_states == sum(self.layer_sizes)


def frontier_sweep(
    instances: Sequence = (("MS", 2, 2), ("MS", 2, 3), ("MIS", 2, 2)),
    k_for_is: int = 4,
    memory_budget_bytes: Optional[int] = None,
    spill_dir: Optional[str] = None,
    resume: bool = False,
) -> Iterator[FrontierRow]:
    """Layer profiles + diameters past the compiled-table wall, one
    row per instance, each computed by the memory-bounded frontier
    engine (:mod:`repro.frontier`) under a fixed byte budget.

    ``spill_dir`` streams each instance's frontiers through a per-run
    subdirectory (``<spill_dir>/<network>``); with ``resume`` a crashed
    sweep picks every instance whose run dir holds a journal up from
    its last journaled layer, and runs the others (those that finished,
    whose run dirs were removed, and those not reached) from scratch.
    """
    from ..analysis import average_distance_from_layers
    from ..frontier import DEFAULT_MEMORY_BUDGET, FrontierBFS
    from ..frontier.spill import JOURNAL_NAME

    budget = (
        DEFAULT_MEMORY_BUDGET if memory_budget_bytes is None
        else memory_budget_bytes
    )
    for family, l, n in instances:
        with get_tracer().span(
            "sweep.frontier", family=family, l=l, n=n, budget=budget,
        ) as sp:
            net = (make_network("IS", k=k_for_is) if family == "IS"
                   else make_network(family, l=l, n=n))
            run_dir = None
            journaled = False
            if spill_dir is not None:
                import os

                run_dir = os.path.join(
                    spill_dir, net.name.replace("(", "_")
                    .replace(")", "").replace(",", "_")
                )
                journaled = os.path.exists(
                    os.path.join(run_dir, JOURNAL_NAME)
                )
            result = FrontierBFS(
                net,
                memory_budget_bytes=budget,
                spill_dir=run_dir,
                resume=resume and journaled,
            ).run()
            sp.set(diameter=result.diameter, states=result.num_states)
        yield FrontierRow(
            network=result.network,
            k=result.k,
            num_states=result.num_states,
            diameter=result.diameter,
            layer_sizes=tuple(result.layer_sizes),
            batches=result.batches,
            dedup_ratio=result.dedup_ratio,
            memory_budget_bytes=result.memory_budget_bytes,
            spill_segments=result.spill_segments,
            spilled_bytes=result.spilled_bytes,
            exact_keys=result.exact_keys,
            elapsed_seconds=result.elapsed_seconds,
            avg_distance=average_distance_from_layers(result.layer_sizes),
            resumed_from=result.resumed_from,
        )
