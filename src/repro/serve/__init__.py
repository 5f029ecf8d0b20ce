"""Production-style serving layer over the compiled graph core.

``repro.serve`` turns the repository's compiled Cayley-graph tables
into an online query service:

* :mod:`~repro.serve.engine` — :class:`QueryEngine`, answering batched
  distance / route / neighbor / embedding / properties queries as
  single vectorised array operations over warm
  :class:`~repro.core.compiled.CompiledGraph` tables;
* :mod:`~repro.serve.shard` — :class:`ShardPool`, a crash-tolerant
  multiprocessing back end pinning graph families to worker shards;
* :mod:`~repro.serve.wire` — the two wire protocols (newline JSON and
  length-prefixed binary frames with numpy column payloads), stream
  size discipline, and oversized-line recovery;
* :mod:`~repro.serve.server` — :class:`QueryServer`, an asyncio TCP
  front end speaking both protocols on one port, with adaptive
  micro-batching, admission control, and per-request timeouts;
* :mod:`~repro.serve.workload` — deterministic seeded workload
  generators and the closed-accounting load generator (JSON or binary,
  closed-loop or pipelined).

See ``docs/serving.md`` for the wire protocol and operational story.
"""

from . import wire
from .engine import (
    QueryEngine,
    QueryError,
    algorithmic_route,
    node_str,
    parse_ids,
    parse_node,
    parse_symbols,
    route_payloads,
    validate_symbols,
)
from .server import AdaptiveWindow, QueryServer, ServerThread
from .shard import ShardOverload, ShardPool
from .workload import (
    LoadGenResult,
    hotspot_pairs,
    make_workload,
    percentile,
    query_server,
    replay_trace,
    requests_from_pairs,
    run_loadgen,
    sample_traces,
    save_trace,
    stamp_arrivals,
    transpose_pairs,
    uniform_pairs,
)

__all__ = [
    "AdaptiveWindow",
    "QueryEngine",
    "QueryError",
    "QueryServer",
    "ServerThread",
    "ShardOverload",
    "ShardPool",
    "LoadGenResult",
    "algorithmic_route",
    "hotspot_pairs",
    "make_workload",
    "node_str",
    "parse_ids",
    "parse_node",
    "parse_symbols",
    "percentile",
    "query_server",
    "replay_trace",
    "requests_from_pairs",
    "route_payloads",
    "run_loadgen",
    "sample_traces",
    "save_trace",
    "stamp_arrivals",
    "transpose_pairs",
    "uniform_pairs",
    "validate_symbols",
    "wire",
]
