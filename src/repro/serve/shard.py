"""Sharded multiprocessing back end for the query engine.

A :class:`ShardPool` runs one :class:`~repro.serve.engine.QueryEngine`
per worker process and pins each network *family* to a fixed shard, so
a family's compiled tables are warmed in exactly one process instead of
``num_shards`` times.  Dispatch rides bounded queues: when a shard's
queue is full, :meth:`ShardPool.submit` raises :class:`ShardOverload`
(backpressure — the front end turns it into an "overloaded" response)
rather than buffering without limit.

Crash safety follows the delivered/dropped reconciliation discipline of
:mod:`repro.faults`: every submitted request is accounted for exactly
once.  The parent records which shard every request was dispatched to;
when a worker dies, requests still sitting in the shard's dispatch
queue are re-enqueued for the restarted worker and everything else
dispatched to that shard — answered or not, claim message delivered or
lost — becomes an explicit error response immediately, so
:meth:`ShardPool.stats` asserts ``submitted == completed + failed``
at all times and a crash never stalls :meth:`ShardPool.drain` to its
deadline.  (Workers still *claim* requests on the results queue before
executing them, for observability.)

Test hooks: the ``_crash`` op makes the worker exit hard after
claiming (exercising restart + accounting), ``_crash_silent`` kills it
*before* the claim (exercising lost-claim reconciliation), ``_sleep``
holds a worker busy (exercising backpressure).  All are handled in the
worker loop, never by the engine.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from typing import Dict, List, Optional, Sequence, Set
from zlib import crc32

from ..obs import (
    MetricsRegistry,
    dump_flight,
    extract,
    get_registry,
    get_span_buffer,
    inject,
    record_event,
    reset_flight_recorder,
    reset_span_buffer,
    set_registry,
    start_span,
)
from .engine import QueryEngine

_STOP = None  # queue sentinel

#: how often a worker ships its metric snapshot to the pool parent.
METRICS_SHIP_INTERVAL_S = 0.25


class ShardOverload(RuntimeError):
    """The target shard's dispatch queue is full (backpressure)."""


def _worker_main(shard_index, in_queue, out_queue, table_cache,
                 shared_tables=False):
    """Worker loop: claim, execute, answer — one engine per process.

    Observability shipping rides the same results queue as answers,
    tagged by message kind: finished remote spans go up as
    ``("spans", shard, rid, [span, ...])`` immediately *before* the
    request's result (queue FIFO guarantees the parent sees them
    first), and the worker's full metric snapshot goes up as
    ``("metrics", shard, None, snapshot)`` at most every
    :data:`METRICS_SHIP_INTERVAL_S` (snapshot *replacement*, not
    deltas, so a lost ship self-heals on the next one).

    With ``shared_tables`` the engine attaches host-shared table
    stores; any ``/dev/shm`` store this worker ends up *creating*
    (cold host, no pre-warm) is reported up as
    ``("segment", shard, None, name)`` so the pool parent — which
    outlives worker crashes — owns the unlink at drain.
    """
    # A fork inherits the parent's registry, span buffer, and flight
    # ring; keeping them would double-count everything the parent
    # already recorded, so the worker starts its own.
    registry = MetricsRegistry()
    set_registry(registry)
    spans = reset_span_buffer()
    reset_flight_recorder()
    requests_hist = registry.histogram("serve.shard_request_ms")
    last_ship = 0.0  # ship the first snapshot immediately
    engine = QueryEngine(
        table_cache=table_cache,
        shared_tables=shared_tables,
        on_table_create=lambda name: out_queue.put(
            ("segment", shard_index, None, name)
        ),
    )
    try:
        while True:
            item = in_queue.get()
            if item is _STOP:
                engine.publish_cache_gauges(registry)
                out_queue.put(
                    ("metrics", shard_index, None, registry.snapshot())
                )
                break
            rid, request = item
            op = request.get("op") if isinstance(request, dict) else None
            if op == "_crash_silent":
                # Die after dequeuing but before claiming — the request
                # is in neither the shard queue nor the claim set, the
                # case dispatch tracking exists to reconcile.
                os._exit(13)
            out_queue.put(("claim", shard_index, rid, None))
            record_event("shard.claim", shard=shard_index, rid=rid, op=op)
            if op == "_crash":
                # Give the queue's feeder thread time to flush the
                # claim, then die without cleanup — the pool must
                # reconcile.
                time.sleep(float(request.get("delay", 0.2)))
                os._exit(13)
            ctx = extract(request)
            span = start_span(
                "shard.execute", ctx,
                {"shard": shard_index, "op": op},
            )
            started = time.perf_counter()
            if span is not None:
                span.__enter__()
                request = inject(request, span.context())
            response = None
            try:
                if op == "_sleep":
                    time.sleep(float(request.get("seconds", 0.1)))
                    response = {"ok": True, "op": "_sleep", "result": {}}
                else:
                    try:
                        response = engine.execute(request)
                    except Exception as exc:  # never die on a request
                        response = {
                            "ok": False, "op": op,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
            finally:
                if span is not None:
                    span.ok = bool(response and response.get("ok"))
                    span.__exit__(None, None, None)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            requests_hist.observe(elapsed_ms, shard=shard_index)
            registry.counter("serve.shard_requests").inc(
                1, shard=shard_index,
                ok=bool(response.get("ok")),
            )
            if isinstance(request, dict) and "id" in request:
                response["id"] = request["id"]
            finished = spans.drain()
            if finished:
                out_queue.put(("spans", shard_index, rid, finished))
            out_queue.put(("result", shard_index, rid, response))
            now = time.monotonic()
            if now - last_ship >= METRICS_SHIP_INTERVAL_S or last_ship == 0.0:
                last_ship = now
                engine.publish_cache_gauges(registry)
                out_queue.put(
                    ("metrics", shard_index, None, registry.snapshot())
                )
    except Exception as exc:  # loop-level failure, not a bad request
        record_event("shard.worker-error", shard=shard_index,
                     error=f"{type(exc).__name__}: {exc}")
        dump_flight("worker-error", spans=spans.peek(),
                    extra={"shard": shard_index})
        raise


class ShardPool:
    """A fixed set of engine workers behind bounded dispatch queues.

    With ``table_cache`` or ``shared_tables``, call
    :meth:`prepare_shared_tables` before traffic to build each family's
    store once, in the parent.

    Parameters
    ----------
    num_shards:
        Worker process count; families hash onto shards stably
        (:meth:`shard_for`).
    queue_depth:
        Bound on each shard's dispatch queue — the backpressure limit.
    table_cache:
        Passed to every worker's engine: each warm family attaches its
        store file under this directory, and the host lock lets one
        worker create a missing store while the rest wait and attach.
        Nothing unlinks it.
    shared_tables:
        One host copy of each family's compiled arrays: workers attach
        read-only (:func:`repro.io.attach_compiled_tables`) instead of
        compiling privately — a store file in ``/dev/shm`` unless
        ``table_cache`` names a directory.  Stores there created lazily
        by a cold worker ship their names up so the parent owns every
        unlink, and :meth:`close` releases them all — a crashed worker
        can never leak ``/dev/shm``.
    restart:
        Restart crashed workers (on by default).  Restarting preserves
        the shard's queued requests; only requests the dead worker had
        already taken off its queue are failed.
    """

    def __init__(
        self,
        num_shards: int = 2,
        queue_depth: int = 64,
        table_cache: Optional[str] = None,
        shared_tables: bool = False,
        restart: bool = True,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.queue_depth = queue_depth
        self.table_cache = table_cache
        self.shared_tables = shared_tables
        self.restart_policy = restart
        ctx = multiprocessing.get_context()
        self._ctx = ctx
        self._in_queues = [
            ctx.Queue(maxsize=queue_depth) for _ in range(num_shards)
        ]
        self._out_queue = ctx.Queue()
        self._workers: List[Optional[multiprocessing.Process]] = (
            [None] * num_shards
        )
        self._next_rid = 0
        self._pending: Set[int] = set()
        self._shard_of: Dict[int, int] = {}  # rid -> dispatch shard
        self._claimed: List[Set[int]] = [set() for _ in range(num_shards)]
        self._responses: Dict[int, Dict[str, object]] = {}
        # latest metric snapshot shipped by each live worker (snapshot
        # replacement: each ship supersedes the previous one)
        self._shard_metrics: Dict[int, Dict[str, object]] = {}
        # /dev/shm store names this pool must unlink at close: created
        # in the parent by prepare_shared_tables, or shipped up by
        # whichever cold worker created one lazily.
        self._owned_segments: Set[str] = set()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.restarts = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardPool":
        if self._started:
            return self
        for shard in range(self.num_shards):
            self._workers[shard] = self._spawn(shard)
        self._started = True
        return self

    def _spawn(self, shard: int) -> multiprocessing.Process:
        worker = self._ctx.Process(
            target=_worker_main,
            args=(
                shard, self._in_queues[shard], self._out_queue,
                self.table_cache, self.shared_tables,
            ),
            daemon=True,
            name=f"repro-serve-shard-{shard}",
        )
        worker.start()
        return worker

    def prepare_shared_tables(
        self, specs: Sequence[Dict[str, object]]
    ) -> Dict[str, str]:
        """Create or validate the table stores for ``specs`` once, in
        the pool parent, before workers attach.

        Run this before traffic (the cluster manager's warm step does):
        the parent takes the host lock, compiles each family at most
        once host-wide, and owns every ``/dev/shm`` store it created,
        so worker start-up is pure attach.  Returns ``{network name:
        mode}`` with the :func:`repro.io.attach_compiled_tables` mode
        per spec; a no-op (empty dict) unless the pool was built with
        ``shared_tables`` or ``table_cache``.
        """
        if not self.shared_tables and self.table_cache is None:
            return {}
        from ..io import attach_compiled_tables
        from ..networks import make_network

        modes: Dict[str, str] = {}
        for spec in specs:
            params = {
                k: v for k, v in spec.items()
                if k != "family" and v is not None
            }
            net = make_network(spec["family"], **params)
            if not net.can_compile():
                continue
            compiled, mode = attach_compiled_tables(
                net, cache_dir=self.table_cache
            )
            modes[net.name] = mode
            store = getattr(compiled, "_store", None)
            if store is not None and store.created and store.shared:
                self._owned_segments.add(store.name)
        return modes

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (pending requests are abandoned; call
        :meth:`drain` first if you want them answered) and unlink every
        ``/dev/shm`` store the pool owns — nothing survives there past
        a drain."""
        if not self._started:
            self._release_segments()
            return
        for in_queue in self._in_queues:
            try:
                in_queue.put_nowait(_STOP)
            except queue.Full:
                pass
        for worker in self._workers:
            if worker is not None:
                worker.join(timeout=timeout)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=timeout)
        while self._pump(0.0):  # final metric/span ships from STOP
            pass
        for in_queue in self._in_queues:
            in_queue.close()
        self._out_queue.close()
        self._started = False
        self._release_segments()

    def _release_segments(self) -> None:
        from ..io import release_compiled_tables

        for name in sorted(self._owned_segments):
            release_compiled_tables(name)
        self._owned_segments.clear()

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- placement -----------------------------------------------------

    def shard_for(self, network_spec) -> int:
        """Stable family -> shard pinning (all instances of a family
        share one worker's warm caches)."""
        if isinstance(network_spec, dict):
            pin = str(network_spec.get("family", network_spec))
        else:
            pin = str(network_spec)
        return crc32(pin.encode()) % self.num_shards

    # -- dispatch ------------------------------------------------------

    def submit(self, request: Dict[str, object]) -> int:
        """Enqueue a request on its family's shard; returns the pool's
        internal request id.  Raises :class:`ShardOverload` when the
        shard queue is full."""
        if not self._started:
            self.start()
        shard = self.shard_for(request.get("network"))
        rid = self._next_rid
        try:
            self._in_queues[shard].put_nowait((rid, request))
        except queue.Full:
            registry = get_registry()
            if registry.enabled:
                registry.counter("serve.shard_overloads").inc(
                    1, shard=shard
                )
            raise ShardOverload(
                f"shard {shard} queue full ({self.queue_depth} deep)"
            ) from None
        self._next_rid += 1
        self._pending.add(rid)
        self._shard_of[rid] = shard
        self.submitted += 1
        return rid

    # -- collection ----------------------------------------------------

    def _pump(self, timeout: float) -> bool:
        """Move one message off the results queue; True if one arrived.

        Besides claims and results, workers ship observability traffic
        on the same queue: ``spans`` messages land in this process's
        span buffer (where the server's collector drains them), and
        ``metrics`` messages replace the worker's stored snapshot."""
        try:
            kind, shard, rid, payload = self._out_queue.get(timeout=timeout)
        except queue.Empty:
            return False
        except (ValueError, OSError):
            # queue already closed: stats read after drain serve from
            # the last shipped snapshots instead of crashing.
            return False
        if kind == "claim":
            self._claimed[shard].add(rid)
        elif kind == "spans":
            buffer = get_span_buffer()
            for span in payload:
                buffer.append(span)
        elif kind == "metrics":
            self._shard_metrics[shard] = payload
        elif kind == "segment":
            # a cold worker created a /dev/shm store: the parent (which
            # outlives worker crashes) takes over the unlink.
            self._owned_segments.add(payload)
        else:
            self._record(rid, payload)
            self._claimed[shard].discard(rid)
        return True

    def _record(self, rid: int, response: Dict[str, object]) -> None:
        if rid not in self._pending:
            return
        self._pending.discard(rid)
        self._shard_of.pop(rid, None)
        self._responses[rid] = response
        if response.get("ok"):
            self.completed += 1
        else:
            self.failed += 1

    def _reap(self) -> None:
        """Reconcile a dead worker's shard and restart it.

        Every request dispatched to the shard is in exactly one of
        three places: answered (its result made it to the out queue),
        still sitting in the shard's dispatch queue, or *inside* the
        dead worker (taken off the queue, whether or not its claim
        message survived the dying process's queue feeder).  The first
        group is flushed normally, the second is re-enqueued for the
        restarted worker, and everything else is failed immediately —
        so a lost claim can never stall :meth:`drain` until the
        deadline."""
        for shard, worker in enumerate(self._workers):
            if worker is None or worker.is_alive():
                continue
            while self._pump(0.0):  # flush messages it did deliver
                pass
            exitcode = worker.exitcode
            survivors: List[tuple] = []
            try:
                while True:
                    item = self._in_queues[shard].get_nowait()
                    if item is not _STOP:
                        survivors.append(item)
            except queue.Empty:
                pass
            survivor_rids = {rid for rid, _ in survivors}
            lost = sorted(
                rid for rid in self._pending
                if self._shard_of.get(rid) == shard
                and rid not in survivor_rids
            )
            for rid in lost:
                self._record(rid, {
                    "ok": False,
                    "error": (
                        f"worker shard {shard} crashed "
                        f"(exit {exitcode})"
                    ),
                })
            self._claimed[shard].clear()
            self._workers[shard] = None
            record_event("shard.worker-crash", shard=shard,
                         exitcode=exitcode, lost=len(lost),
                         requeued=len(survivors))
            dump_flight("worker-crash", extra={
                "shard": shard, "exitcode": exitcode,
                "lost": len(lost), "requeued": len(survivors),
            })
            if self.restart_policy:
                self.restarts += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter("serve.worker_restarts").inc(
                        1, shard=shard
                    )
                self._workers[shard] = self._spawn(shard)
                for item in survivors:  # queue was drained: fits again
                    self._in_queues[shard].put_nowait(item)
            else:
                # No worker will ever serve the survivors either.
                for rid, _ in survivors:
                    self._record(rid, {
                        "ok": False,
                        "error": (
                            f"worker shard {shard} crashed "
                            f"(exit {exitcode}, no restart)"
                        ),
                    })

    def drain(
        self, timeout: float = 30.0, fail_stragglers: bool = True
    ) -> Dict[int, Dict[str, object]]:
        """Collect until every submitted request is answered (or the
        deadline passes).  With ``fail_stragglers`` anything still
        unanswered at the deadline becomes an explicit error response,
        so the books always close."""
        deadline = time.monotonic() + timeout
        while self._pending and time.monotonic() < deadline:
            if not self._pump(0.05):
                self._reap()
        self._reap()
        if fail_stragglers:
            for rid in sorted(self._pending):
                self._record(rid, {
                    "ok": False, "error": "lost in shard pool (drain "
                    "deadline passed)",
                })
        return dict(self._responses)

    def take_response(self, rid: int) -> Optional[Dict[str, object]]:
        """Pop one collected response (None when not yet answered)."""
        return self._responses.pop(rid, None)

    def execute_many(
        self,
        requests: Sequence[Dict[str, object]],
        timeout: float = 30.0,
    ) -> List[Dict[str, object]]:
        """Back-end entry point (same shape as
        :meth:`QueryEngine.execute_many`): dispatch, drain, return
        responses in request order.  Overloaded submissions come back
        as ``ok: false`` "overloaded" responses."""
        rids: List[Optional[int]] = []
        overloaded: List[int] = []
        for i, request in enumerate(requests):
            try:
                rids.append(self.submit(request))
            except ShardOverload:
                rids.append(None)
                overloaded.append(i)
        self.drain(timeout=timeout)
        out: List[Dict[str, object]] = []
        for i, (request, rid) in enumerate(zip(requests, rids)):
            if rid is None:
                response = {
                    "ok": False, "op": request.get("op"),
                    "error": "overloaded",
                }
                if "id" in request:
                    response["id"] = request["id"]
                out.append(response)
            else:
                out.append(self.take_response(rid))
        return out

    # -- observability -------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """The pool's cluster-of-workers metric view: every worker's
        latest shipped snapshot merged with a ``shard=<i>`` label
        (counters add, histograms vector-add; see
        :func:`repro.obs.export.merge_metrics_snapshots`)."""
        while self._pump(0.0):  # absorb any ships waiting on the queue
            pass
        from ..obs import merge_metrics_snapshots

        shards = sorted(self._shard_metrics)
        return merge_metrics_snapshots(
            [self._shard_metrics[s] for s in shards],
            extra_labels=[{"shard": s} for s in shards],
        )

    def cache_stats(self) -> Dict[str, object]:
        """Worker cache occupancy summed across shards, read from the
        latest shipped ``serve.cache_entries`` gauge rows (same shape
        as :meth:`QueryEngine.cache_stats`, feeding the ``stats`` admin
        op and ``repro top``)."""
        while self._pump(0.0):
            pass
        totals: Dict[str, object] = {}
        table_bytes: Dict[str, int] = {}
        for snapshot in self._shard_metrics.values():
            gauges = snapshot.get("gauges", {})
            for row in gauges.get("serve.cache_entries", []):
                cache = row.get("labels", {}).get("cache")
                if cache is not None:
                    key = str(cache).replace("-", "_")  # engine key names
                    totals[key] = totals.get(key, 0) + row["value"]
            for row in gauges.get("serve.table_bytes", []):
                kind = row.get("labels", {}).get("kind")
                if kind is not None:
                    table_bytes[str(kind)] = (
                        table_bytes.get(str(kind), 0) + row["value"]
                    )
        if table_bytes:
            totals["table_bytes"] = table_bytes
        return totals

    # -- accounting ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Closed accounting: ``submitted == completed + failed +
        in_flight`` by construction."""
        in_flight = len(self._pending)
        return {
            "num_shards": self.num_shards,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "in_flight": in_flight,
            "restarts": self.restarts,
            "closed": (
                self.submitted == self.completed + self.failed + in_flight
            ),
        }

    def __repr__(self) -> str:
        return (
            f"<ShardPool: {self.num_shards} shards, "
            f"{self.submitted} submitted, {len(self._pending)} in flight, "
            f"{self.restarts} restarts>"
        )
