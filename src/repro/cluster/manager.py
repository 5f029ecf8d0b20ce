"""Cluster lifecycle: replicas, kill/restart, graceful drain.

:class:`ClusterManager` turns the single hardened node of
:mod:`repro.serve` into a replicated cluster: it launches ``N``
replicas — each a :class:`~repro.serve.server.QueryServer` with its own
:class:`~repro.serve.engine.QueryEngine` on a private event-loop thread
(:class:`~repro.serve.server.ServerThread`) — plus one
:class:`~repro.cluster.router.RouterThread` front proxy wired to all of
them over the consistent-hash ring.

Three lifecycle verbs, mirroring the fault/repair schedules of
:mod:`repro.faults`:

* :meth:`kill` — abrupt death: every replica connection is aborted
  mid-batch (RST), the router detects the sever immediately and fails
  over; this is what :mod:`repro.cluster.chaos` drives;
* :meth:`restart` — bring a dead (or drained) replica back on the
  *same* port; the router's prober reconnects and marks it UP;
* :meth:`drain` — the zero-loss protocol: tell the router to stop
  admitting (its family ranges hash to peers), wait for the replica's
  in-flight calls to flush, drain the replica's own batch queue, and
  only then stop it.  :meth:`rolling_restart` chains a drain +
  restart across every replica — a full-cluster upgrade with zero
  failed requests.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..obs import record_event
from ..serve.engine import QueryEngine
from ..serve.server import ServerThread
from ..serve.shard import ShardPool
from .router import RouterThread

#: the default health-probe query: a real ``properties`` op on the
#: smallest macro-star instance (k = 3, six nodes) so probes exercise
#: the replica's engine, not just its accept loop.
DEFAULT_PROBE_SPEC = {"family": "MS", "l": 2, "n": 1}


class Replica:
    """One serving replica: engine + server thread, restartable on a
    stable port.

    ``shards > 0`` gives the replica a
    :class:`~repro.serve.shard.ShardPool` backend — ``shards`` worker
    *processes* behind the server thread instead of an in-process
    engine — which is what makes a mini-cluster's request path cross
    real process boundaries (router process → replica thread → shard
    worker process), the topology the distributed tracer exists for.
    """

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        table_cache: Optional[str] = None,
        batch_window: float = 0.002,
        request_timeout: float = 5.0,
        shards: int = 0,
        shared_tables: bool = False,
    ):
        self.name = name
        self.host = host
        self.table_cache = table_cache
        self.batch_window = batch_window
        self.request_timeout = request_timeout
        self.shards = shards
        self.shared_tables = shared_tables
        self.port = 0  # pinned after first start
        self.engine: Optional[QueryEngine] = None
        self.pool: Optional[ShardPool] = None
        self.thread: Optional[ServerThread] = None
        # /dev/shm stores created by an in-thread engine backend (pool
        # backends track their own); released on stop/kill.
        self._owned_segments: set = set()
        self.kills = 0
        self.restarts = 0

    @property
    def running(self) -> bool:
        return self.thread is not None

    def start(self) -> "Replica":
        if self.thread is not None:
            return self
        if self.shards > 0:
            self.engine = None
            self.pool = ShardPool(
                num_shards=self.shards,
                table_cache=self.table_cache,
                shared_tables=self.shared_tables,
            ).start()
            backend = self.pool
        else:
            self.engine = QueryEngine(
                table_cache=self.table_cache,
                shared_tables=self.shared_tables,
                on_table_create=self._owned_segments.add,
            )
            backend = self.engine
        self.thread = ServerThread(
            backend,
            host=self.host,
            port=self.port,
            batch_window=self.batch_window,
            request_timeout=self.request_timeout,
            name=self.name,
        ).__enter__()
        self.port = self.thread.port  # ephemeral on first start, then pinned
        return self

    def warm(self, specs) -> None:
        """Compile (or attach) networks into this replica's engine (or
        its shard workers) before it takes traffic."""
        specs = list(specs)
        if self.engine is not None:
            for spec in specs:
                self.engine.network(spec)
        elif self.pool is not None:
            # With shared tables or a table cache the parent builds (or
            # validates) the stores first, so each worker's warm-up is
            # an attach.
            self.pool.prepare_shared_tables(specs)
            # Shard workers warm by answering a properties op per spec
            # (each spec lands on its family's pinned shard).
            self.pool.execute_many([
                {"op": "properties", "network": dict(spec)}
                for spec in specs
            ])

    def _close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._owned_segments:
            from ..io import release_compiled_tables

            for name in sorted(self._owned_segments):
                release_compiled_tables(name)
            self._owned_segments.clear()

    def stop(self) -> None:
        """Graceful stop: answer what's parked, then shut down."""
        if self.thread is None:
            return
        self.thread.__exit__(None, None, None)
        self.thread = None
        self._close_pool()

    def drain_and_stop(self, timeout: float = 10.0) -> bool:
        """Flush in-flight batches through the engine, then stop."""
        if self.thread is None:
            return True
        flushed = self.thread.drain(timeout=timeout)
        self.stop()
        return flushed

    def kill(self) -> None:
        """Abrupt death: abort every connection mid-batch, no answers."""
        if self.thread is None:
            return
        self.kills += 1
        self.thread.kill()
        self.thread = None
        self._close_pool()

    def restart(self) -> "Replica":
        """Back on the same port (dead or stopped replicas only)."""
        if self.thread is not None:
            raise RuntimeError(f"{self.name} is still running")
        self.restarts += 1
        return self.start()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<Replica {self.name} {self.host}:{self.port} {state}, "
            f"{self.kills} kills, {self.restarts} restarts>"
        )


class ClusterManager:
    """Launch and operate a replicated serving cluster.

    Usage::

        with ClusterManager(replicas=3) as cluster:
            result = run_loadgen(cluster.host, cluster.port, requests)
            cluster.kill("replica-1")        # chaos
            cluster.restart("replica-1")
            cluster.rolling_restart()        # zero-loss upgrade
    """

    def __init__(
        self,
        replicas: int = 3,
        replication_factor: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        table_cache: Optional[str] = None,
        warm_specs: Tuple[Dict[str, object], ...] = (),
        probe_spec: Optional[Dict[str, object]] = DEFAULT_PROBE_SPEC,
        probe_interval: float = 0.1,
        request_timeout: float = 5.0,
        ring_seed: int = 0,
        batch_window: float = 0.002,
        shards_per_replica: int = 0,
        shared_tables: bool = False,
    ):
        if replicas < 1:
            raise ValueError(f"need at least 1 replica, got {replicas}")
        self.shards_per_replica = shards_per_replica
        self.shared_tables = shared_tables
        self.replicas: Dict[str, Replica] = {
            f"replica-{i}": Replica(
                f"replica-{i}",
                host=host,
                table_cache=table_cache,
                batch_window=batch_window,
                request_timeout=request_timeout,
                shards=shards_per_replica,
                shared_tables=shared_tables,
            )
            for i in range(replicas)
        }
        self.replication_factor = replication_factor
        self.warm_specs = tuple(dict(s) for s in warm_specs)
        self.probe_spec = probe_spec
        self.probe_interval = probe_interval
        self.request_timeout = request_timeout
        self.ring_seed = ring_seed
        self._router_host = host
        self._router_port = port
        self.router: Optional[RouterThread] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    def start(self, wait_healthy: float = 15.0) -> "ClusterManager":
        warm = list(self.warm_specs)
        if self.probe_spec is not None:
            warm.append(dict(self.probe_spec))
        for replica in self.replicas.values():
            replica.start()
            if warm:
                replica.warm(warm)
        self.router = RouterThread(
            {
                name: (replica.host, replica.port)
                for name, replica in self.replicas.items()
            },
            host=self._router_host,
            port=self._router_port,
            replication_factor=self.replication_factor,
            probe_spec=self.probe_spec,
            probe_interval=self.probe_interval,
            request_timeout=self.request_timeout,
            ring_seed=self.ring_seed,
        ).start()
        if wait_healthy and not self.router.wait_all_up(wait_healthy):
            down = [
                name for name, up in self.router.backends_up().items()
                if not up
            ]
            raise RuntimeError(f"replicas never became healthy: {down}")
        return self

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        for replica in self.replicas.values():
            if replica.running:
                replica.stop()

    def __enter__(self) -> "ClusterManager":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- chaos verbs ----------------------------------------------------

    def kill(self, name: str) -> None:
        """Abrupt replica death (chaos): connections abort mid-batch;
        the router fails over the in-flight calls."""
        record_event("cluster.kill", replica=name)
        self.replicas[name].kill()

    def restart(self, name: str, wait_up: float = 15.0) -> None:
        """Bring a dead replica back on its pinned port and wait for
        the router's prober to mark it UP again."""
        replica = self.replicas[name]
        replica.restart()
        if self.warm_specs or self.probe_spec:
            warm = list(self.warm_specs)
            if self.probe_spec is not None:
                warm.append(dict(self.probe_spec))
            replica.warm(warm)
        if wait_up and self.router is not None:
            if not self.router.wait_state(name, up=True, timeout=wait_up):
                raise RuntimeError(f"{name} never came back up")

    # -- the drain protocol ---------------------------------------------

    def drain(self, name: str, timeout: float = 15.0) -> int:
        """Zero-loss drain: stop admitting, flush in-flight, stop.

        1. the router marks the replica DRAINING and removes it from
           the ring — its family ranges hash to its peers (the moved
           key count is returned);
        2. wait until the router has zero in-flight calls on it;
        3. the replica flushes its own parked batches through the
           engine and stops;
        4. wait for the router to *observe* the stop (its persistent
           connection severs), so a following restart's UP-wait can't
           be satisfied by the stale pre-drain state.
        """
        if self.router is None:
            raise RuntimeError("cluster is not running")
        record_event("cluster.drain", replica=name)
        moved = self.router.start_drain(name)
        deadline = time.monotonic() + timeout
        while self.router.inflight(name) > 0 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        remaining = max(deadline - time.monotonic(), 0.1)
        self.replicas[name].drain_and_stop(timeout=remaining)
        self.router.wait_state(name, up=False, timeout=timeout)
        return moved

    def undrain(self, name: str, wait_up: float = 15.0) -> None:
        """Restart a drained replica and hand its ranges back."""
        self.restart(name, wait_up=wait_up)
        self.router.end_drain(name)

    def rolling_restart(self, timeout: float = 15.0) -> List[str]:
        """Drain + restart every replica in turn — the zero-failed-
        requests upgrade path the acceptance criteria pin down."""
        order = sorted(self.replicas)
        for name in order:
            self.drain(name, timeout=timeout)
            self.undrain(name)
        return order

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        stats = {
            "replicas": {
                name: {
                    "running": replica.running,
                    "port": replica.port,
                    "kills": replica.kills,
                    "restarts": replica.restarts,
                }
                for name, replica in sorted(self.replicas.items())
            },
        }
        if self.router is not None:
            stats["router"] = self.router.stats()
        return stats

    def __repr__(self) -> str:
        running = sum(1 for r in self.replicas.values() if r.running)
        return (
            f"<ClusterManager: {running}/{len(self.replicas)} replicas "
            f"running, rf={self.replication_factor}>"
        )
