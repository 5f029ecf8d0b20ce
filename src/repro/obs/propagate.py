"""Wire-level trace propagation across process boundaries.

The PR 1 :class:`~repro.obs.tracer.Tracer` is deliberately
single-process: integer span ids from a process-local counter,
``perf_counter`` timestamps that only compare within one process, and
an in-memory parent stack.  None of that survives a hop over the JSON
protocol or a ``multiprocessing`` queue, so the distributed layer adds
a parallel, Dapper-style mechanism:

* a :class:`TraceContext` — ``{"trace_id": ..., "parent_span_id": ...}``
  — rides on the request itself under the reserved ``trace`` key
  (:func:`inject` / :func:`extract`);
* each hop that sees a context opens a :class:`RemoteSpan` via
  :func:`start_span`, forwards a *child* context (parent = its own span
  id) to the next hop, and on close appends the finished span dict to
  the process-global :class:`SpanBuffer`;
* span ids are pid-prefixed (``"<pid hex>-<counter>"``) so ids minted
  in forked shard workers never collide with the parent's, and
  timestamps are wall-clock ``time.time()`` so spans from different
  processes order on a shared axis (coarser than ``perf_counter``, but
  durations additionally carry a monotonic measurement);
* buffers from different processes are shipped home over whatever
  channel already exists (shard workers use the result queue) and
  merged by :mod:`repro.obs.collector` into one tree per ``trace_id``.

Sampling is decided once, at the edge (loadgen ``--trace-sample``): a
request without a ``trace`` field costs every hop exactly one dict
lookup.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: reserved request field carrying the trace context over the wire.
TRACE_FIELD = "trace"

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def new_span_id() -> str:
    """A span id unique across every process of a run.

    The pid prefix keeps forked shard workers (which inherit the
    counter position) from colliding with the parent or each other;
    the lock keeps the server's handful of threads from colliding
    within a process.
    """
    with _id_lock:
        n = next(_id_counter)
    return f"{os.getpid():x}-{n:x}"


def new_trace_id(rng=None) -> str:
    """A fresh 64-bit trace id; pass a seeded ``random.Random`` for
    reproducible sampling decisions in tests and benches."""
    if rng is not None:
        return f"{rng.getrandbits(64):016x}"
    return f"{int.from_bytes(os.urandom(8), 'big'):016x}"


class TraceContext:
    """The two wire fields that tie a hop's spans into a trace."""

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: str, parent_span_id: Optional[str] = None):
        self.trace_id = str(trace_id)
        self.parent_span_id = (
            None if parent_span_id is None else str(parent_span_id)
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> Optional["TraceContext"]:
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not trace_id:
            return None
        return cls(str(trace_id), data.get("parent_span_id"))

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"parent_span_id={self.parent_span_id!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.parent_span_id == other.parent_span_id
        )


def extract(request: Any) -> Optional[TraceContext]:
    """The trace context of a request, or ``None`` (the unsampled fast
    path: one dict lookup)."""
    if not isinstance(request, dict):
        return None
    raw = request.get(TRACE_FIELD)
    if raw is None:
        return None
    return TraceContext.from_dict(raw)


def inject(request: Dict[str, Any], ctx: TraceContext) -> Dict[str, Any]:
    """A copy of ``request`` carrying ``ctx`` (the original is left
    untouched — hops forward copies, never mutate the caller's dict)."""
    forwarded = dict(request)
    forwarded[TRACE_FIELD] = ctx.to_dict()
    return forwarded


def strip(request: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``request`` without its trace context (for layers that
    must not leak the reserved field further, e.g. trace saving)."""
    if TRACE_FIELD not in request:
        return request
    return {k: v for k, v in request.items() if k != TRACE_FIELD}


class RemoteSpan:
    """One hop's span in a distributed trace.

    A context manager: opening stamps wall-clock + monotonic start,
    closing computes the duration from the monotonic clock (immune to
    wall-clock steps) and appends the finished dict to the buffer.
    Exceptions mark the span failed but always propagate.
    """

    __slots__ = ("name", "trace_id", "parent_span_id", "span_id",
                 "attributes", "start_ts", "_start_mono", "end_ts",
                 "duration_ms", "ok", "_buffer")

    def __init__(
        self,
        name: str,
        ctx: TraceContext,
        buffer: "SpanBuffer",
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = ctx.trace_id
        self.parent_span_id = ctx.parent_span_id
        self.span_id = new_span_id()
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_ts: Optional[float] = None
        self._start_mono: Optional[float] = None
        self.end_ts: Optional[float] = None
        self.duration_ms: Optional[float] = None
        self.ok = True
        self._buffer = buffer

    def context(self) -> TraceContext:
        """The child context to forward to the next hop."""
        return TraceContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "RemoteSpan":
        self.start_ts = time.time()
        self._start_mono = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.ok = False
            self.attributes.setdefault("error", exc_type.__name__)
        self.end_ts = time.time()
        if self._start_mono is not None:
            self.duration_ms = (
                (time.perf_counter() - self._start_mono) * 1000.0
            )
        self._buffer.append(self.to_dict())
        return False  # never swallow

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "pid": os.getpid(),
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "duration_ms": self.duration_ms,
            "ok": self.ok,
            "attributes": dict(self.attributes),
        }


class SpanBuffer:
    """A bounded, thread-safe buffer of finished span dicts.

    One per process (module-global below).  ``drain`` hands the
    accumulated spans to whoever ships them home — the shard worker's
    queue pump, the collector, or a flight-recorder dump — and resets
    the buffer.  The bound makes an unsampled-forever process safe: if
    nothing ever drains, the oldest spans fall off.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spans: List[Dict[str, Any]] = []
        self._dropped = 0
        self._lock = threading.Lock()

    def append(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                overflow = len(self._spans) - self.capacity
                del self._spans[:overflow]
                self._dropped += overflow

    def drain(self) -> List[Dict[str, Any]]:
        """All buffered spans, removing them from the buffer."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def peek(self) -> List[Dict[str, Any]]:
        """A copy of the buffered spans without draining them."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_span_buffer = SpanBuffer()


def get_span_buffer() -> SpanBuffer:
    """The process-global remote-span buffer."""
    return _span_buffer


def reset_span_buffer(capacity: int = SpanBuffer.DEFAULT_CAPACITY) -> SpanBuffer:
    """Replace the process-global buffer with a fresh one.

    Forked shard workers call this first thing: a fork inherits the
    parent's buffered spans, and shipping those back up would
    double-count every one of them.
    """
    global _span_buffer
    _span_buffer = SpanBuffer(capacity)
    return _span_buffer


def start_span(
    name: str,
    ctx: Optional[TraceContext],
    attributes: Optional[Dict[str, Any]] = None,
    buffer: Optional[SpanBuffer] = None,
) -> Optional[RemoteSpan]:
    """Open a remote span under ``ctx``, or ``None`` when the request
    is unsampled (callers guard the span plumbing on the result)."""
    if ctx is None:
        return None
    return RemoteSpan(
        name, ctx, buffer if buffer is not None else _span_buffer,
        attributes,
    )
