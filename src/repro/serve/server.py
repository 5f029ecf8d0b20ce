"""Asyncio TCP front end with micro-batching, two protocols per port.

:class:`QueryServer` speaks both wire protocols on one port, told apart
by the first byte of each message (see :mod:`repro.serve.wire`):
newline-delimited JSON (each line one engine request, responses
correlated by the echoed ``id``) and the length-prefixed binary frame
protocol (struct header + numpy column payloads for the hot ops).
Either way, requests are not answered one at a time — arrivals are
parked for a short *batching window* and then handed to the back end as
one ``execute_many`` call, which coalesces same-network distance and
table-route queries into single vectorised passes.  Under concurrency the window
converts ``n`` socket round-trips into one array operation; when
traffic is sparse the window is the only added latency — and the
window itself *adapts*: :class:`AdaptiveWindow` scales it down from the
configured cap as the observed arrival rate rises, so bursts cut
batches as soon as a target batch size has accumulated instead of
always paying the full window.

Two protections keep the server well-behaved under overload:

* **admission control** — when more than ``max_pending`` requests are
  parked, new arrivals are rejected immediately with an ``overloaded``
  error instead of growing the queue;
* **per-request timeouts** — requests that sit past
  ``request_timeout`` (e.g. behind a stuck back end) are answered with
  a ``timeout`` error when their batch is cut.

Every request is answered exactly once: ``received == completed +
rejected + timeouts + malformed`` is asserted by :meth:`QueryServer.stats`
and checked end-to-end by the loadgen smoke tests.  Metrics flow
through :mod:`repro.obs` under ``serve.*`` (requests, batch sizes,
queue depth, latency); latency quantiles (p50/p99) come from a bounded
mergeable :class:`~repro.obs.histogram.LogHistogram`.

The server is also a hop in the distributed trace: a sampled request (a
``trace`` context on the wire) gets a ``server.request`` span covering
arrival to response, and the child context is forwarded to the back end
so shard workers and the engine nest underneath.  Two admin ops answer
inline even with a wedged backend: ``stats`` (accounting + quantiles)
and ``metrics`` (the full metric snapshot, merged with the shard pool's
workers when the backend ships them).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import (
    LogHistogram,
    RemoteSpan,
    dump_flight,
    extract,
    get_registry,
    get_span_buffer,
    get_tracer,
    inject,
    merge_metrics_snapshots,
    record_event,
    start_span,
)
from . import wire

DEFAULT_BATCH_WINDOW = 0.002
DEFAULT_MAX_PENDING = 1024
DEFAULT_REQUEST_TIMEOUT = 5.0
DEFAULT_TARGET_BATCH = 64


class AdaptiveWindow:
    """Arrival-rate-adaptive micro-batch window.

    The fixed ``batch_window`` sleep is the worst of both worlds: under
    a burst the batch has long since reached a useful size and the
    sleep is pure added latency; under a trickle it is the only source
    of batching and should stay at the cap.  This tracker keeps an EWMA
    of the arrival rate (from inter-arrival gaps fed to
    :meth:`observe`) and answers ``min(cap, target_batch / rate)`` —
    the time a *target*-sized batch takes to accumulate at the current
    rate, never more than the configured cap, never less than a small
    floor (one event-loop tick's worth of real sleep).
    """

    def __init__(
        self,
        cap: float = DEFAULT_BATCH_WINDOW,
        target_batch: int = DEFAULT_TARGET_BATCH,
        floor: float = 1e-4,
        alpha: float = 0.2,
    ):
        self.cap = cap
        self.target_batch = max(target_batch, 1)
        self.floor = min(floor, cap)
        self.alpha = alpha
        self.rate = 0.0  # EWMA arrivals per second
        self._last: Optional[float] = None

    def observe(self, now: float) -> None:
        """Feed one arrival timestamp (``time.monotonic()``)."""
        if self._last is not None:
            gap = max(now - self._last, 1e-6)
            instant = 1.0 / gap
            self.rate = instant if self.rate == 0.0 else (
                self.alpha * instant + (1.0 - self.alpha) * self.rate
            )
        self._last = now

    def window(self) -> float:
        """The batch window to sleep right now, in seconds."""
        if self.rate <= 0.0:
            return self.cap
        return min(self.cap, max(self.floor,
                                 self.target_batch / self.rate))


@dataclass
class _Pending:
    """One parked request: payload, its client, and its arrival time."""

    request: Dict[str, object]
    writer: asyncio.StreamWriter
    arrived: float
    deadline: float
    span: Optional[RemoteSpan] = None
    proto: str = "json"  # which protocol the response must use


@dataclass
class ServerStats:
    """Closed request/response accounting plus latency quantiles."""

    received: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    malformed: int = 0
    batches: int = 0
    max_batch: int = 0
    started: float = field(default_factory=time.monotonic)

    def answered(self) -> int:
        return self.completed + self.rejected + self.timeouts \
            + self.malformed

    @property
    def closed(self) -> bool:
        """Every received request has exactly one response."""
        return self.received == self.answered()


class QueryServer:
    """Serve a query back end over TCP with micro-batched dispatch.

    ``backend`` is anything with ``execute_many(requests) ->
    responses`` — a :class:`~repro.serve.engine.QueryEngine` (in-process
    vectorised batching) or a :class:`~repro.serve.shard.ShardPool`
    (family-sharded worker processes).  ``port=0`` binds an ephemeral
    port (read :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        name: Optional[str] = None,
        adaptive: bool = True,
        target_batch: int = DEFAULT_TARGET_BATCH,
    ):
        self.backend = backend
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.name = name  # replica label on spans/flight events
        self.adaptive = adaptive
        self.window = AdaptiveWindow(
            cap=batch_window, target_batch=target_batch
        )
        self._window_now = batch_window  # last window the batcher slept
        self.stats_counters = ServerStats()
        self._pending: List[_Pending] = []
        # deferred serve.requests / serve.proto increments, flushed per
        # batch cut and before any admin metrics read
        self._rx_pending: Dict[str, int] = {"json": 0, "binary": 0}
        self._latencies = LogHistogram()
        self._wake: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[asyncio.Task] = None
        self._clients: set = set()
        self._closing = False
        self._draining = False
        self._in_batch = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "QueryServer":
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=wire.WIRE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.stats_counters.started = time.monotonic()
        self._batcher = asyncio.create_task(self._batch_loop())
        return self

    async def drain(self, timeout: float = 10.0) -> bool:
        """Graceful drain: stop admitting, flush every in-flight batch
        through the back end, answer it, and return once nothing is
        parked (or the deadline passes).

        New arrivals during the drain are rejected with a ``draining``
        error (counted as ``rejected``), so accounting stays closed
        while the batcher finishes real work.  Returns ``True`` when
        every in-flight request was answered within ``timeout``.
        """
        self._draining = True
        record_event("server.drain", name=self.name, port=self.port,
                     pending=len(self._pending))
        deadline = time.monotonic() + timeout
        while (self._pending or self._in_batch) \
                and time.monotonic() < deadline:
            if self._wake is not None:
                self._wake.set()
            await asyncio.sleep(0.005)
        clean = not self._pending and not self._in_batch
        dump_flight("drain", spans=get_span_buffer().peek(), extra={
            "name": self.name, "port": self.port, "clean": clean,
            "stats": self.stats(),
        })
        return clean

    async def stop(self) -> None:
        """Stop accepting, answer every parked request (as timeouts),
        and shut the batcher down — accounting stays closed.  Call
        :meth:`drain` first for a zero-loss shutdown."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._wake is not None:
            self._wake.set()
        if self._batcher is not None:
            await self._batcher
        registry = get_registry()
        if registry.enabled:
            self._flush_rx_metrics(registry)
        for item in self._pending:
            self.stats_counters.timeouts += 1
            self._close_span(item, ok=False, error="server shutting down")
            await self._send(item.writer, self._error_response(
                item.request, "server shutting down"
            ), item.proto)
        self._pending.clear()
        # FIN every client so peers (the cluster router's persistent
        # connections especially) see the shutdown immediately instead
        # of timing out against a dead-but-open socket.
        for writer in list(self._clients):
            try:
                writer.close()
            except (ConnectionResetError, OSError):
                pass

    def kill(self) -> None:
        """Abrupt death (chaos testing): abort every client transport
        with a RST and close the listener, mid-batch, no answers.  The
        front proxy sees the connection sever and fails over."""
        self._closing = True
        record_event("server.kill", name=self.name, port=self.port,
                     pending=len(self._pending))
        dump_flight("kill", spans=get_span_buffer().peek(), extra={
            "name": self.name, "port": self.port,
            "pending": len(self._pending),
        })
        if self._server is not None:
            self._server.close()
        for writer in list(self._clients):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._wake is not None:
            self._wake.set()

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- client handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stats = self.stats_counters
        registry = get_registry()
        self._clients.add(writer)
        try:
            await self._client_loop(reader, writer, stats, registry)
        except asyncio.CancelledError:
            # shutdown cancels handler tasks mid-read; the asyncio
            # streams connection callback would log the propagating
            # CancelledError as an "Exception in callback" traceback
            pass
        finally:
            # runs even when the handler task is cancelled at shutdown,
            # so every client gets a FIN instead of a stale socket
            self._clients.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _client_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stats: ServerStats,
        registry,
    ) -> None:
        while not self._closing:
            try:
                message = await wire.read_message(reader)
            except wire.WireError:
                # Unrecoverable binary framing (corrupt header, frame
                # over the ceiling): the stream cannot be resynchronised
                # past an unread payload, so answer once and close.
                stats.received += 1
                stats.malformed += 1
                if registry.enabled:
                    registry.counter("serve.requests").inc(1)
                await self._send(writer, {
                    "ok": False, "error": "malformed frame",
                })
                break
            except (ConnectionResetError, OSError,
                    asyncio.IncompleteReadError):
                break
            if message is None:
                break
            if message is wire.OVERSIZED:
                # An over-limit JSON line was consumed and discarded by
                # read_message — the connection survives; count the
                # request as malformed so accounting stays closed.
                stats.received += 1
                stats.malformed += 1
                if registry.enabled:
                    registry.counter("serve.requests").inc(1)
                await self._send(writer, {
                    "ok": False,
                    "error": "malformed request: line over the "
                             f"{wire.WIRE_LIMIT}-byte wire limit",
                })
                continue
            proto = "binary" if isinstance(message, wire.Frame) \
                else "json"
            stats.received += 1
            # serve.requests / serve.proto are deferred to the next
            # batch cut (or admin read): one labelled inc per request
            # costs as much as decoding the request at pipelined rates.
            self._rx_pending[proto] += 1
            if proto == "binary":
                try:
                    request = wire.decode_request(message)
                except wire.WireError as exc:
                    stats.malformed += 1
                    response = {
                        "ok": False,
                        "error": f"malformed request: {exc}",
                    }
                    if message.has_id:
                        response["id"] = message.request_id
                    await self._send(writer, response, proto)
                    continue
            else:
                try:
                    request = json.loads(message)
                    if not isinstance(request, dict):
                        raise ValueError(
                            "request must be a JSON object"
                        )
                except ValueError as exc:
                    stats.malformed += 1
                    await self._send(writer, {
                        "ok": False,
                        "error": f"malformed request: {exc}",
                    })
                    continue
            if request.get("op") == "stats":
                # Answered inline so it works even with a wedged backend.
                stats.completed += 1
                await self._send(writer, {
                    "ok": True, "op": "stats", "result": self.stats(),
                    **({"id": request["id"]} if "id" in request else {}),
                }, proto)
                continue
            if request.get("op") == "metrics":
                # Also inline: the live metric snapshot (own process +
                # shard workers) must stay readable under overload —
                # that is exactly when `repro top` matters.
                stats.completed += 1
                await self._send(writer, {
                    "ok": True, "op": "metrics",
                    "result": self.metrics_snapshot(),
                    **({"id": request["id"]} if "id" in request else {}),
                }, proto)
                continue
            if self._draining:
                stats.rejected += 1
                if registry.enabled:
                    registry.counter("serve.rejected").inc(1)
                await self._send(writer, self._error_response(
                    request, "draining"
                ), proto)
                continue
            if len(self._pending) >= self.max_pending:
                stats.rejected += 1
                if registry.enabled:
                    registry.counter("serve.rejected").inc(1)
                await self._send(writer, self._error_response(
                    request, "overloaded"
                ), proto)
                continue
            # Admission granted: a sampled request opens its
            # server.request span here (covering queueing + batching +
            # backend time) and the *child* context is what the back
            # end sees, so shard/engine spans nest underneath.
            ctx = extract(request)
            span = start_span("server.request", ctx, {
                "op": str(request.get("op")), "replica": self.name,
            })
            if span is not None:
                span.__enter__()
                request = inject(request, span.context())
            now = time.monotonic()
            if self.adaptive:
                self.window.observe(now)
            self._pending.append(_Pending(
                request=request, writer=writer, arrived=now,
                deadline=now + self.request_timeout, span=span,
                proto=proto,
            ))
            self._wake.set()

    @staticmethod
    def _close_span(
        item: _Pending, ok: bool, error: Optional[str] = None
    ) -> None:
        if item.span is None:
            return
        item.span.ok = ok
        if error is not None:
            item.span.set_attribute("error", error)
        item.span.__exit__(None, None, None)
        item.span = None

    @staticmethod
    def _error_response(
        request: Dict[str, object], message: str
    ) -> Dict[str, object]:
        response = {
            "ok": False, "op": request.get("op"), "error": message,
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        response: Dict[str, object],
        proto: str = "json",
    ) -> None:
        QueryServer._write(writer, response, proto)
        await QueryServer._drain(writer)

    @staticmethod
    def _write(
        writer: asyncio.StreamWriter,
        response: Dict[str, object],
        proto: str = "json",
    ) -> None:
        """Queue a response on the transport without draining — the
        batch loop drains each touched writer once per batch."""
        try:
            if proto == "binary":
                writer.write(wire.encode_response(response))
            else:
                writer.write(json.dumps(response).encode() + b"\n")
        except (ConnectionResetError, OSError):
            pass  # client went away; accounting already counted it

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionResetError, OSError):
            pass

    # -- the batching window --------------------------------------------

    async def _batch_loop(self) -> None:
        registry = get_registry()
        loop = asyncio.get_event_loop()
        while not self._closing:
            await self._wake.wait()
            self._wake.clear()
            if self._closing:
                break
            # The micro-batching window: let concurrent arrivals pile
            # into this batch before cutting it.  Adaptive mode shrinks
            # the sleep from the configured cap as the arrival rate
            # rises — a burst cuts its batch as soon as ~target_batch
            # requests have had time to land.
            self._window_now = self.window.window() if self.adaptive \
                else self.batch_window
            if registry.enabled:
                registry.gauge("serve.batch_window_ms").set(
                    self._window_now * 1000.0
                )
            await asyncio.sleep(self._window_now)
            if registry.enabled:
                # queue depth sampled once per window (at its fullest,
                # just before the cut) instead of per arrival
                registry.gauge("serve.queue_depth").set(
                    len(self._pending)
                )
                self._flush_rx_metrics(registry)
            batch, self._pending = self._pending, []
            if not batch:
                continue
            now = time.monotonic()
            live: List[_Pending] = []
            for item in batch:
                if item.deadline < now:
                    self.stats_counters.timeouts += 1
                    if registry.enabled:
                        registry.counter("serve.timeouts").inc(1)
                    self._close_span(item, ok=False, error="timeout")
                    await self._send(item.writer, self._error_response(
                        item.request, "timeout"
                    ), item.proto)
                else:
                    live.append(item)
            if not live:
                continue
            self._in_batch = len(live)
            self.stats_counters.batches += 1
            self.stats_counters.max_batch = max(
                self.stats_counters.max_batch, len(live)
            )
            if registry.enabled:
                registry.histogram("serve.batch_size").observe(len(live))
            with get_tracer().span("serve.batch", size=len(live)):
                # Off the event loop so new arrivals keep accumulating
                # (and stats stays answerable) while arrays crunch.
                try:
                    responses = await loop.run_in_executor(
                        None,
                        self.backend.execute_many,
                        [item.request for item in live],
                    )
                except Exception as exc:
                    # A backend exception must not kill the batcher:
                    # answer everyone in this batch with an error and
                    # keep serving — the accounting invariant ("every
                    # received request is answered exactly once") holds
                    # even against poison requests.
                    if registry.enabled:
                        registry.counter("serve.backend_errors").inc(1)
                    responses = [
                        self._error_response(
                            item.request,
                            f"backend error: "
                            f"{type(exc).__name__}: {exc}",
                        )
                        for item in live
                    ]
            responses = list(responses)
            if len(responses) < len(live):  # defensive: a short backend
                responses += [
                    self._error_response(item.request, "no response "
                                         "from backend")
                    for item in live[len(responses):]
                ]
            done = time.monotonic()
            touched: Dict[int, asyncio.StreamWriter] = {}
            latency_metric = registry.histogram("serve.latency_ms") \
                if registry.enabled else None
            for item, response in zip(live, responses):
                if response is None:
                    response = self._error_response(
                        item.request, "no response from backend"
                    )
                latency_ms = (done - item.arrived) * 1000.0
                self._latencies.observe(latency_ms)
                self.stats_counters.completed += 1
                if latency_metric is not None:
                    latency_metric.observe(latency_ms)
                self._close_span(item, ok=bool(response.get("ok")))
                # queue without draining: one drain per connection per
                # batch instead of one await per response
                self._write(item.writer, response, item.proto)
                touched[id(item.writer)] = item.writer
            for writer in touched.values():
                await self._drain(writer)
            self._in_batch = 0

    def _flush_rx_metrics(self, registry) -> None:
        """Publish the deferred per-request admission counters."""
        for kind in ("json", "binary"):
            n = self._rx_pending[kind]
            if n:
                self._rx_pending[kind] = 0
                registry.counter("serve.requests").inc(n)
                registry.counter("serve.proto").inc(n, kind=kind)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-able accounting + latency summary (the ``stats`` op)."""
        stats = self.stats_counters
        elapsed = max(time.monotonic() - stats.started, 1e-9)
        payload = {
            "received": stats.received,
            "completed": stats.completed,
            "rejected": stats.rejected,
            "timeouts": stats.timeouts,
            "malformed": stats.malformed,
            "closed": stats.closed,
            "batches": stats.batches,
            "max_batch": stats.max_batch,
            "pending": len(self._pending),
            "draining": self._draining,
            "qps": stats.completed / elapsed,
            "p50_ms": self._latencies.percentile(50.0),
            "p99_ms": self._latencies.percentile(99.0),
            "adaptive": self.adaptive,
            "batch_window_ms": self._window_now * 1000.0,
        }
        cache = getattr(self.backend, "cache_stats", None)
        if callable(cache):
            payload["cache"] = cache()
        return payload

    def metrics_snapshot(self) -> Dict[str, object]:
        """The live metric view behind the ``metrics`` admin op: this
        process's registry merged with the shard workers' latest
        shipped snapshots (when the backend is a
        :class:`~repro.serve.shard.ShardPool`).  The in-process engine
        backend has no extra processes, so its snapshot is just the
        registry's."""
        registry = get_registry()
        if registry.enabled:
            # deferred admission counters land before the read, so the
            # snapshot is exact even between batch cuts
            self._flush_rx_metrics(registry)
        snapshots = [registry.snapshot()]
        backend_snap = getattr(self.backend, "metrics_snapshot", None)
        if callable(backend_snap):
            snapshots.append(backend_snap())
        return merge_metrics_snapshots(snapshots)


class ServerThread:
    """Run a :class:`QueryServer` on a private event loop thread.

    The synchronous harness the tests, the benchmark, and ``repro
    loadgen --self-serve`` use::

        with ServerThread(QueryEngine()) as server:
            run_loadgen("127.0.0.1", server.port, requests)
    """

    def __init__(self, backend, **kwargs):
        self.server = QueryServer(backend, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def __enter__(self) -> "ServerThread":
        self._loop = wire.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        self._loop.run_forever()
        # Cancel lingering client handlers (idle readline waits) and
        # drain everything the stop() coroutine left behind.
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._loop.close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Synchronous wrapper around :meth:`QueryServer.drain`."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        )
        return future.result(timeout=timeout + 5.0)

    def kill(self) -> None:
        """Abrupt death: abort every connection mid-batch and tear the
        loop down without answering anything (chaos testing)."""
        if self._loop is None or self._thread is None:
            return

        def _die():
            self.server.kill()
            self._loop.stop()

        try:
            self._loop.call_soon_threadsafe(_die)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout=10.0)

    def __exit__(self, *_exc) -> None:
        async def _shutdown():
            await self.server.stop()
            self._loop.stop()

        try:
            asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        except RuntimeError:
            return  # killed already; thread is gone
        self._thread.join(timeout=10.0)
