"""Deterministic workload generation and the TCP load generator.

Query serving is only meaningful against realistic traffic, so this
module provides the classical interconnection-network workload shapes
as *seeded, reproducible* request streams:

* :func:`uniform_pairs` — independent uniform source/target pairs (the
  baseline every theorem's average-distance claim assumes);
* :func:`hotspot_pairs` — a fraction of traffic converges on a few hot
  targets;
* :func:`transpose_pairs` — permutation traffic: every source sends to
  its own inverse label, the Cayley-graph analogue of matrix-transpose
  traffic (a fixed fixpoint-free pairing of the address space);
* :func:`replay_trace` / :func:`save_trace` — JSONL traces for replay.

:func:`run_loadgen` drives a live :class:`~repro.serve.server.QueryServer`
over TCP with a closed-loop client per connection and reports latency
quantiles plus *closed accounting*: every request sent is counted back
exactly once as ok, error, or timeout.  ``protocol="binary"`` switches
the clients to the length-prefixed binary frames of
:mod:`repro.serve.wire`, and ``pipeline=N`` keeps ``N`` requests
outstanding per connection (correlated by id) instead of one
send-await-repeat round trip at a time — together they are the 10-100x
throughput lever over single-request newline JSON.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.permutations import Permutation
from ..obs import (
    LogHistogram,
    TRACE_FIELD,
    extract,
    inject,
    new_trace_id,
    start_span,
)
from . import wire
from .engine import node_str

Pair = Tuple[str, str]


def _encode(request: Dict[str, object], protocol: str) -> bytes:
    """One request as wire bytes for either protocol."""
    if protocol == "binary":
        return wire.encode_request(request)
    return json.dumps(request).encode() + b"\n"


async def _read_response(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, object]]:
    """One response of either protocol as the plain dict the JSON
    protocol would deliver; ``None`` on EOF."""
    try:
        message = await wire.read_message(reader)
    except asyncio.IncompleteReadError:
        return None  # EOF mid-frame: the connection died
    if message is None:
        return None
    if message is wire.OVERSIZED:
        return {"ok": False, "error": "response over the wire limit"}
    if isinstance(message, wire.Frame):
        return wire.decode_response(message)
    return json.loads(message)


async def _read_accounting(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[object, bool, Optional[str]]]:
    """One response reduced to ``(id, ok, error)`` accounting.

    The pipelined driver only needs the echoed id and the verdict, and
    a binary response frame carries both in its fixed header
    (``request_id`` + ``FLAG_OK``) — so the hot path skips the JSON
    header parse entirely and only failures (or JSON-protocol
    responses) decode in full.  ``None`` on EOF."""
    try:
        message = await wire.read_message(reader)
    except asyncio.IncompleteReadError:
        return None  # EOF mid-frame: the connection died
    if message is None:
        return None
    if message is wire.OVERSIZED:
        return None, False, "response over the wire limit"
    if isinstance(message, wire.Frame):
        if message.flags & wire.FLAG_OK and message.has_id:
            return message.request_id, True, None
        payload = wire.decode_response(message)
    else:
        payload = json.loads(message)
    if payload.get("ok"):
        return payload.get("id"), True, None
    return (payload.get("id"), False,
            str(payload.get("error", "unknown error")))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile by linear interpolation (``None`` on
    empty input) — enough for p50/p99 without numpy round-trips."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


# ----------------------------------------------------------------------
# Pair generators (all seeded, all deterministic)
# ----------------------------------------------------------------------


def uniform_pairs(k: int, count: int, seed: int = 0) -> Iterator[Pair]:
    """Independent uniform source/target pairs on ``Sym(k)``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            node_str(Permutation.random(k, rng)),
            node_str(Permutation.random(k, rng)),
        )


def hotspot_pairs(
    k: int,
    count: int,
    seed: int = 0,
    hotspots: int = 4,
    fraction: float = 0.8,
) -> Iterator[Pair]:
    """Uniform sources, but ``fraction`` of targets land on a fixed set
    of ``hotspots`` hot nodes (drawn once from the seed)."""
    rng = random.Random(seed)
    hot = [node_str(Permutation.random(k, rng)) for _ in range(hotspots)]
    for _ in range(count):
        source = node_str(Permutation.random(k, rng))
        if rng.random() < fraction:
            yield source, rng.choice(hot)
        else:
            yield source, node_str(Permutation.random(k, rng))


def transpose_pairs(k: int, count: int, seed: int = 0) -> Iterator[Pair]:
    """Permutation traffic: each uniform source sends to its own
    inverse label — a fixed global pairing of the address space (the
    permutation-network analogue of transpose traffic; nodes on the
    involution's fixed points send to themselves)."""
    rng = random.Random(seed)
    for _ in range(count):
        source = Permutation.random(k, rng)
        yield node_str(source), node_str(source.inverse())


def requests_from_pairs(
    pairs: Iterable[Pair],
    network: Dict[str, object],
    op: str = "distance",
    batch: int = 1,
    algorithm: Optional[str] = None,
) -> Iterator[Dict[str, object]]:
    """Chunk a pair stream into protocol requests of ``batch`` pairs."""
    chunk: List[List[str]] = []
    for source, target in pairs:
        chunk.append([source, target])
        if len(chunk) >= batch:
            yield _pairs_request(chunk, network, op, algorithm)
            chunk = []
    if chunk:
        yield _pairs_request(chunk, network, op, algorithm)


def _pairs_request(chunk, network, op, algorithm) -> Dict[str, object]:
    request: Dict[str, object] = {
        "op": op, "network": dict(network), "pairs": list(chunk),
    }
    if algorithm is not None:
        request["algorithm"] = algorithm
    return request


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------


def stamp_arrivals(
    requests: Sequence[Dict[str, object]],
    rate: float,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Stamp each request with a ``ts`` arrival offset (seconds from
    run start) drawn from a seeded Poisson process of ``rate`` requests
    per second.

    Stamped traces replay *open-loop*: :func:`run_loadgen` with a
    ``replay_speed`` honors the recorded inter-arrival times instead of
    firing closed-loop as fast as responses return.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    stamped = []
    clock = 0.0
    for request in requests:
        clock += rng.expovariate(rate)
        request = dict(request)
        request["ts"] = round(clock, 6)
        stamped.append(request)
    return stamped


def save_trace(
    requests: Iterable[Dict[str, object]], path
) -> int:
    """Write a request stream as JSONL; returns the request count."""
    count = 0
    with Path(path).open("w") as fh:
        for request in requests:
            fh.write(json.dumps(request) + "\n")
            count += 1
    return count


def replay_trace(path) -> Iterator[Dict[str, object]]:
    """Yield the requests of a :func:`save_trace` JSONL file."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def make_workload(
    kind: str,
    network: Dict[str, object],
    k: int,
    count: int,
    seed: int = 0,
    batch: int = 1,
    op: str = "distance",
) -> List[Dict[str, object]]:
    """Name-based construction of the built-in workloads (the CLI's
    ``--workload`` flag): ``uniform``, ``hotspot``, or ``transpose``."""
    generators = {
        "uniform": uniform_pairs,
        "hotspot": hotspot_pairs,
        "transpose": transpose_pairs,
    }
    if kind not in generators:
        raise ValueError(
            f"unknown workload {kind!r} (expected one of "
            f"{sorted(generators)})"
        )
    pairs = generators[kind](k, count, seed)
    return list(requests_from_pairs(pairs, network, op=op, batch=batch))


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


@dataclass
class LoadGenResult:
    """Outcome of one loadgen run, with closed accounting.

    ``sent == ok + errors + timeouts`` always (checked by
    :attr:`closed`); ``errors`` includes server-side rejections
    ("overloaded") and per-request failures.  Latencies accumulate in a
    bounded :class:`~repro.obs.histogram.LogHistogram` — an open-loop
    run of any length costs a fixed few hundred buckets instead of one
    float per sample, and p50/p99 stay within one bucket (~19 %) of the
    exact order statistics.
    """

    sent: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    elapsed: float = 0.0
    traced: int = 0
    latency_hist: LogHistogram = field(default_factory=LogHistogram)
    error_messages: List[str] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.sent == self.ok + self.errors + self.timeouts

    @property
    def qps(self) -> float:
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def p50_ms(self) -> Optional[float]:
        return self.latency_hist.percentile(50.0)

    @property
    def p99_ms(self) -> Optional[float]:
        return self.latency_hist.percentile(99.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "closed": self.closed,
            "elapsed_s": self.elapsed,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "traced": self.traced,
        }


async def _drive_connection(
    host: str,
    port: int,
    requests: Sequence[Dict[str, object]],
    timeout: float,
    result: LoadGenResult,
    epoch: Optional[float] = None,
    replay_speed: Optional[float] = None,
    protocol: str = "json",
) -> None:
    """One closed-loop client: send, await the matching response,
    repeat.  Responses correlate by the echoed ``id``, never by FIFO
    order: after a client-side timeout the late response eventually
    arrives on the same connection, and matching by id lets us discard
    it instead of miscounting it as the answer to the *next* request
    (which would skew every subsequent latency sample).

    With ``replay_speed``, requests carrying a ``ts`` arrival offset
    (see :func:`stamp_arrivals`) are *paced*: each send waits until its
    recorded arrival time divided by ``replay_speed`` — open-loop trace
    replay instead of as-fast-as-possible closed-loop."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=wire.WIRE_LIMIT
    )
    stale: set = set()  # ids we already counted as timeouts
    try:
        for request in requests:
            ts = request.get("ts")
            if replay_speed and epoch is not None and ts is not None:
                due = epoch + float(ts) / replay_speed
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                request = {
                    k: v for k, v in request.items() if k != "ts"
                }
            # A sampled request (trace context stamped by the sampler,
            # no parent yet) gets its root span here — client.request
            # covers the full wire round-trip, and the server sees the
            # child context.
            span = None
            ctx = extract(request)
            if ctx is not None and ctx.parent_span_id is None:
                span = start_span("client.request", ctx, {
                    "op": str(request.get("op")),
                })
                span.__enter__()
                request = inject(request, span.context())
                result.traced += 1
            writer.write(_encode(request, protocol))
            await writer.drain()
            rid = request.get("id")
            start = time.monotonic()
            deadline = start + timeout
            result.sent += 1
            response: Optional[Dict[str, object]] = None
            try:
                while response is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        result.timeouts += 1
                        if rid is not None:
                            stale.add(rid)
                        break
                    try:
                        payload = await asyncio.wait_for(
                            _read_response(reader), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        result.timeouts += 1
                        if rid is not None:
                            stale.add(rid)
                        break
                    if payload is None:
                        result.errors += 1
                        result.error_messages.append("connection closed")
                        break
                    got = payload.get("id")
                    if got is not None and got in stale:
                        stale.discard(got)  # late answer to a timed-out
                        continue            # request: drop, keep reading
                    if rid is not None and got is not None and got != rid:
                        continue  # not ours (defensive); keep reading
                    response = payload
            finally:
                if span is not None:
                    span.ok = bool(response and response.get("ok"))
                    span.__exit__(None, None, None)
            if response is None:
                continue
            if response.get("ok"):
                result.ok += 1
                result.latency_hist.observe(
                    (time.monotonic() - start) * 1000.0
                )
            else:
                result.errors += 1
                result.error_messages.append(
                    str(response.get("error", "unknown error"))
                )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def _collect_window(
    reader: asyncio.StreamReader,
    waiting: set,
    starts: Dict[object, float],
    stale: set,
    result: LoadGenResult,
) -> bool:
    """Drain responses until every id in ``waiting`` is answered;
    ``False`` when the connection closes first.  Runs under one outer
    ``wait_for`` per window — a timeout cancels the whole remainder and
    the caller books every still-waiting id, exactly like the old
    per-response deadline did."""
    while waiting:
        answer = await _read_accounting(reader)
        if answer is None:
            return False
        got, ok, error = answer
        if got in stale:
            stale.discard(got)  # late answer to a timed-out id
            continue
        if got not in waiting:
            continue  # not ours (defensive); keep reading
        waiting.discard(got)
        if ok:
            result.ok += 1
            result.latency_hist.observe(
                (time.monotonic() - starts[got]) * 1000.0
            )
        else:
            result.errors += 1
            result.error_messages.append(error)
    return True


async def _drive_pipelined(
    host: str,
    port: int,
    encoded: Sequence[Tuple[object, bytes]],
    timeout: float,
    result: LoadGenResult,
    window: int,
) -> None:
    """One pipelined client: keep up to ``window`` requests in flight
    on the connection and correlate responses by id.

    The closed-loop driver pays one full round trip per request; this
    one amortises the round trip over ``window`` requests (send the
    whole window as one write, then collect the window's responses —
    late answers to timed-out ids are discarded by the same stale-id
    bookkeeping).  ``encoded`` is ``(id, wire bytes)`` per request,
    pre-encoded by the caller before the throughput clock starts, so
    the driver's per-request work is one buffer append plus the
    accounting read.  Every request carries an id (stamped by the
    caller), so correlation never falls back to FIFO order.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=wire.WIRE_LIMIT
    )
    stale: set = set()
    try:
        idx = 0
        while idx < len(encoded):
            chunk = encoded[idx:idx + window]
            idx += len(chunk)
            writer.write(b"".join(blob for _, blob in chunk))
            now = time.monotonic()
            starts: Dict[object, float] = {rid: now for rid, _ in chunk}
            result.sent += len(chunk)
            await writer.drain()
            waiting = set(starts)
            try:
                alive = await asyncio.wait_for(
                    _collect_window(reader, waiting, starts, stale,
                                    result),
                    timeout=timeout,
                )
            except asyncio.TimeoutError:
                result.timeouts += len(waiting)
                stale.update(waiting)
                continue
            if not alive:
                result.errors += len(waiting)
                result.error_messages.append("connection closed")
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


def sample_traces(
    requests: Sequence[Dict[str, object]],
    rate: float,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Stamp a seeded fraction of requests with fresh trace contexts.

    The sampling decision is made once, here at the edge — every
    downstream hop simply propagates.  Requests already carrying a
    ``trace`` field are left alone (replayed traces keep their ids).
    Returns copies; the input is untouched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"trace sample rate must be in [0, 1], got {rate}")
    rng = random.Random(seed)
    out = []
    for request in requests:
        if rate > 0 and TRACE_FIELD not in request \
                and rng.random() < rate:
            request = dict(request)
            request[TRACE_FIELD] = {"trace_id": new_trace_id(rng)}
        out.append(request)
    return out


def query_server(
    host: str,
    port: int,
    requests: Sequence[Dict[str, object]],
    timeout: float = 5.0,
) -> List[Dict[str, object]]:
    """Synchronous one-shot client: send each request down a single
    connection and return the responses in order.

    The admin path for tools like ``repro top``: a couple of ``stats``
    / ``metrics`` ops against a router or server, no event loop, no
    concurrency.  Raises ``ConnectionError`` if the server hangs up
    mid-conversation and ``socket.timeout`` on a stalled response.
    """
    import socket

    responses: List[Dict[str, object]] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        stream = sock.makefile("rwb")
        for i, request in enumerate(requests):
            request = dict(request)
            request.setdefault("id", i)
            stream.write(json.dumps(request).encode() + b"\n")
            stream.flush()
            line = stream.readline()
            if not line:
                raise ConnectionError(
                    f"server closed the connection after "
                    f"{len(responses)} of {len(requests)} responses"
                )
            responses.append(json.loads(line))
    return responses


async def _run_loadgen_async(
    host: str,
    port: int,
    requests: Sequence[Dict[str, object]],
    concurrency: int,
    timeout: float,
    replay_speed: Optional[float] = None,
    protocol: str = "json",
    pipeline: int = 1,
) -> LoadGenResult:
    result = LoadGenResult()
    stamped = []
    for i, request in enumerate(requests):
        request = dict(request)
        request.setdefault("id", i)
        stamped.append(request)
    lanes: List[List[Dict[str, object]]] = [
        stamped[i::concurrency] for i in range(concurrency)
    ]
    if pipeline > 1:
        # Encode every request before the clock starts: a load
        # generator measures the server and the wire, not its own
        # serialisation loop.
        encoded_lanes = [
            [(request.get("id"), _encode(request, protocol))
             for request in lane]
            for lane in lanes
        ]
        start = time.monotonic()
        await asyncio.gather(*(
            _drive_pipelined(
                host, port, lane, timeout, result, window=pipeline,
            )
            for lane in encoded_lanes if lane
        ))
    else:
        start = time.monotonic()
        await asyncio.gather(*(
            _drive_connection(
                host, port, lane, timeout, result,
                epoch=start, replay_speed=replay_speed,
                protocol=protocol,
            )
            for lane in lanes if lane
        ))
    result.elapsed = time.monotonic() - start
    return result


def run_loadgen(
    host: str,
    port: int,
    requests: Sequence[Dict[str, object]],
    concurrency: int = 4,
    timeout: float = 10.0,
    replay_speed: Optional[float] = None,
    trace_sample: Optional[float] = None,
    trace_seed: int = 0,
    protocol: str = "json",
    pipeline: int = 1,
) -> LoadGenResult:
    """Fire ``requests`` at a server over ``concurrency`` closed-loop
    connections; returns latency quantiles + closed accounting.

    ``replay_speed`` switches to open-loop pacing for requests stamped
    with ``ts`` arrival offsets (:func:`stamp_arrivals`): ``1.0``
    replays the recorded inter-arrival times in real time, ``2.0``
    twice as fast, and so on.  Unstamped requests still fire
    closed-loop.

    ``trace_sample`` (0..1) samples that fraction of requests for
    end-to-end distributed tracing (:func:`sample_traces`): sampled
    requests carry a trace context over the wire, every hop emits
    spans, and the finished spans land in this process's span buffer
    (``repro.obs.get_span_buffer()``) for a
    :class:`~repro.obs.collector.TraceCollector` to assemble.

    ``protocol`` selects the wire encoding per client (``"json"`` or
    ``"binary"``); ``pipeline=N`` (N > 1) switches every connection to
    the pipelined driver with ``N`` requests outstanding.  Pipelined
    runs ignore ``replay_speed`` pacing and client-side trace spans
    (sampled requests still carry their context to the server).
    """
    if replay_speed is not None and replay_speed <= 0:
        raise ValueError(
            f"replay_speed must be positive, got {replay_speed}"
        )
    if protocol not in ("json", "binary"):
        raise ValueError(
            f"protocol must be \"json\" or \"binary\", got {protocol!r}"
        )
    if trace_sample:
        requests = sample_traces(requests, trace_sample, seed=trace_seed)
    return wire.run(_run_loadgen_async(
        host, port, requests, max(1, concurrency), timeout,
        replay_speed=replay_speed, protocol=protocol,
        pipeline=max(1, pipeline),
    ))
