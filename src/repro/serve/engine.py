"""Batched query engine over compiled graph arrays.

One :class:`QueryEngine` answers the query mix an interconnection
network exists to serve — pairwise distance, route extraction, first
hops, neighbourhoods, embedding images, whole-graph properties — as
*batched* requests: a thousand distance queries are one vectorised
relative-rank computation over the
:class:`~repro.core.compiled.CompiledGraph` arrays instead of a
thousand object-path BFS walks.

The engine is the shared back end of the whole serving stack: the
asyncio front end (:mod:`repro.serve.server`) coalesces concurrent TCP
requests into :meth:`QueryEngine.execute_many` calls, which answer all
of a batch's ``distance`` requests, and all of its pair-form table
``route`` requests, over one network in one relative-rank pass each;
the worker pool (:mod:`repro.serve.shard`) runs one engine per shard
process, and ``repro route --json`` emits exactly the per-route payload
the engine returns so the CLI and the server are diff-testable against
each other.

Three bounded LRU caches (:class:`~repro.core.lru.LRUCache`) keep a
long-running process flat: warm compiled graphs (optionally attached
from a table store via :func:`repro.io.attach_compiled_tables`),
per-target reverse-BFS route tables for hotspot traffic, and
embeddings.  Evictions surface on the ``serve.table_evictions``
counter.  Answers themselves are not cached: keying and storing every
response costs about as much as recomputing a small batch, so a result
cache pays only when most requests repeat byte for byte (break-even
was measured near four in five).

Request/response protocol (JSON-able dicts, shared with the TCP
server's newline-delimited framing)::

    {"op": "distance", "network": {"family": "MS", "l": 2, "n": 2},
     "pairs": [["34251", "12345"], ...]}
    -> {"ok": true, "op": "distance", "result": {"distances": [4, ...]}}

Nodes are one-line permutation labels, written as digit strings
(``"34251"``) or symbol lists (``[3, 4, 2, 5, 1]``); the engine only
serves materialisable instances (``k <= MAX_COMPILE_K``), which is
every instance the paper tabulates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.compiled import descend, layered_bfs, rank_array, tree_words
from ..core.lru import EVICTION_METRIC, LRUCache
from ..core.permutations import Permutation
from ..core.super_cayley import SuperCayleyNetwork
from ..networks import make_network
from ..obs import extract, get_registry, get_tracer, start_span
from ..routing import star_distance_array

NodeSpec = Union[str, Sequence[int]]

#: default LRU capacities: graphs are megabytes, route tables kilobytes.
DEFAULT_MAX_GRAPHS = 8
DEFAULT_MAX_ROUTE_TABLES = 64
DEFAULT_MAX_EMBEDDINGS = 8


class QueryError(ValueError):
    """A malformed or unanswerable request (reported, not raised, at
    the protocol boundary)."""


# ----------------------------------------------------------------------
# Node codec
# ----------------------------------------------------------------------


def parse_node(value: NodeSpec, k: int) -> Permutation:
    """Decode a protocol node — ``"34251"``, ``"3,4,2,5,1"``, or
    ``[3, 4, 2, 5, 1]`` — into a :class:`Permutation` of size ``k``."""
    try:
        if isinstance(value, str):
            symbols = (
                [int(part) for part in value.split(",")]
                if "," in value else [int(ch) for ch in value]
            )
        else:
            symbols = [int(s) for s in value]
    except (TypeError, ValueError) as exc:
        raise QueryError(f"bad node {value!r}: {exc}") from exc
    if len(symbols) != k:
        raise QueryError(
            f"node {value!r} has {len(symbols)} symbols, network needs {k}"
        )
    try:
        return Permutation(symbols)
    except (ValueError, AssertionError) as exc:
        raise QueryError(f"bad node {value!r}: {exc}") from exc


def check_pairs(
    pairs: object,
) -> List[Tuple[NodeSpec, NodeSpec]]:
    """Validate a wire-form pair list into ``(source, target)`` tuples,
    raising :class:`QueryError` (not bare ``ValueError``/``TypeError``)
    on anything that is not a sequence of two-element pairs."""
    if isinstance(pairs, (str, bytes)) or not hasattr(pairs, "__iter__"):
        raise QueryError(f"\"pairs\" must be a list of pairs, got "
                         f"{type(pairs).__name__}")
    out: List[Tuple[NodeSpec, NodeSpec]] = []
    for p in pairs:
        if isinstance(p, (str, bytes)) or not hasattr(p, "__len__") \
                or len(p) != 2:
            raise QueryError(
                f"bad pair {p!r}: expected [source, target]"
            )
        out.append((p[0], p[1]))
    return out


def node_str(node: Union[Permutation, Sequence[int]]) -> str:
    """The protocol's canonical node encoding: a digit string for
    ``k <= 9`` (every symbol one digit), the comma form beyond that —
    concatenated multi-digit symbols would be ambiguous (``"10"`` is
    one symbol or two?), so ``k >= 10`` labels round-trip through
    :func:`parse_node`'s comma path instead."""
    symbols = node.symbols if isinstance(node, Permutation) else node
    if len(symbols) > 9:
        return ",".join(str(int(s)) for s in symbols)
    return "".join(str(int(s)) for s in symbols)


def node_strs(symbols: np.ndarray) -> List[str]:
    """:func:`node_str` for every row of an ``(m, k)`` symbol matrix —
    one ASCII pass for digit labels."""
    m, k = symbols.shape
    if k > 9:
        return [node_str(row) for row in symbols.tolist()]
    text = (symbols + 48).astype(np.uint8).tobytes().decode("ascii")
    return [text[i:i + k] for i in range(0, m * k, k)]


#: identity memo for :func:`spec_key`: the wire decoder hands every
#: request of a pipelined run the same header (and so the same
#: network-spec dict object), making per-request canonicalisation pure
#: waste.  Entries hold a strong reference to the spec dict, so an
#: ``id()`` can never be recycled while its entry is alive.
_SPEC_KEY_MEMO: Dict[int, Tuple[Dict[str, object], Tuple]] = {}
_SPEC_KEY_MEMO_MAX = 256


def spec_key(spec: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical hashable form of a network spec dict.  Treats specs as
    immutable wire values (they are everywhere in this package): a dict
    mutated *in place* after a lookup would keep serving its old key."""
    entry = _SPEC_KEY_MEMO.get(id(spec))
    if entry is not None and entry[0] is spec:
        return entry[1]
    key = tuple(sorted((k, str(v)) for k, v in spec.items()))
    if len(_SPEC_KEY_MEMO) >= _SPEC_KEY_MEMO_MAX:
        _SPEC_KEY_MEMO.clear()
    _SPEC_KEY_MEMO[id(spec)] = (spec, key)
    return key


# ----------------------------------------------------------------------
# Batched array kernels
# ----------------------------------------------------------------------


def validate_symbols(symbols: np.ndarray, k: int) -> None:
    """Vectorised permutation check for an ``(m, k)`` symbol matrix:
    every entry in ``1..k`` (one range pass) and every row a bijection
    (one scatter pass).  Raises :class:`QueryError` naming the first
    bad row — the shared guard behind :func:`parse_symbols`'s ASCII
    fast path and the binary protocol's ``frombuffer``-decoded columns
    (which skip string parsing entirely and must not reach the array
    kernels unvalidated)."""
    ok = ((symbols >= 1) & (symbols <= k)).all(axis=1)
    if bool(ok.all()):
        # each row must hit every position 1..k exactly once
        seen = np.zeros((symbols.shape[0], k), dtype=symbols.dtype)
        np.put_along_axis(seen, symbols - 1, 1, axis=1)
        ok = seen.all(axis=1)
    if not bool(ok.all()):
        bad = symbols[int(np.argmin(ok))].tolist()
        raise QueryError(
            f"bad node {bad!r}: not a permutation of 1..{k}"
        )


def parse_symbols(nodes: Sequence[NodeSpec], k: int) -> np.ndarray:
    """Whole-batch node decoding: an ``(m, k)`` symbol matrix for a
    list of protocol nodes.

    The canonical wire form — ``k``-digit strings — takes a fully
    vectorised path: one joined byte buffer reshaped to the matrix, one
    range check, one scatter-based permutation-validity check.  No
    per-node :class:`Permutation` objects, which is what makes a
    20k-pair batch an array operation instead of 40k object
    constructions.  Comma/list forms fall back to :func:`parse_node`
    per entry.

    The fast path is gated on ``k <= 9``: beyond nine symbols the
    digit-concatenation encoding is ambiguous (symbol ``10`` is two
    characters), a ``k``-char string can never be a valid label, and
    single-digit decoding would mis-read it — so ``k >= 10`` batches
    always take the :func:`parse_node` path, which rejects ambiguous
    digit strings with a precise error and accepts comma/list forms.
    """
    nodes = list(nodes)
    if nodes and k <= 9 and all(
        isinstance(v, str) and len(v) == k and "," not in v for v in nodes
    ):
        try:
            buf = np.frombuffer(
                "".join(nodes).encode("ascii"), dtype=np.uint8
            )
        except UnicodeEncodeError:
            buf = None
        if buf is not None:
            symbols = (buf.reshape(len(nodes), k) - 48).astype(np.int64)
            try:
                validate_symbols(symbols, k)
            except QueryError:
                for v in nodes:
                    parse_node(v, k)  # raises the precise QueryError
                raise  # pragma: no cover - scalar path must also reject
            return symbols
    out = np.empty((len(nodes), k), dtype=np.int64)
    for i, v in enumerate(nodes):
        out[i] = parse_node(v, k).symbols
    return out


def parse_ids(nodes: Sequence[NodeSpec], k: int) -> np.ndarray:
    """Node IDs (Lehmer ranks) for a batch of protocol nodes — one
    :func:`parse_symbols` pass, one :func:`rank_array` pass."""
    return rank_array(parse_symbols(nodes, k))


def relative_labels(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Labels of ``s^-1 * t`` row-wise over two symbol matrices: one
    vectorised label inversion, one composition gather — no
    Python-level permutation arithmetic."""
    m, k = s.shape
    s_inv = np.empty_like(s)
    rows = np.arange(m)[:, None]
    s_inv[rows, s - 1] = np.arange(1, k + 1, dtype=np.int64)[None, :]
    # (s^-1 * t)(i) = s^-1(t(i)): gather the inverse at t's columns.
    return np.take_along_axis(s_inv, t - 1, axis=1)


def relative_ranks_of_symbols(
    s: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Ranks of ``s^-1 * t`` row-wise: ``distances[result]`` is the
    batch of pairwise distances (left translation maps the
    identity-rooted tables onto every source)."""
    return rank_array(relative_labels(s, t))


# ----------------------------------------------------------------------
# Shared route payload (CLI `route --json` parity)
# ----------------------------------------------------------------------


def algorithmic_route(
    network: SuperCayleyNetwork,
    source: Permutation,
    target: Permutation,
    simplify: bool = True,
) -> List[str]:
    """The per-family algorithmic router — star emulation
    (:func:`~repro.routing.sc_route`) or rotator-sequence routing for
    the pure-rotator nuclei — exactly the dispatch ``repro route``
    performs."""
    from ..routing import rotator_family_route, sc_route
    from ..routing.rotator_routing import ROTATOR_FAMILIES

    if network.family in ROTATOR_FAMILIES:
        return rotator_family_route(network, source, target,
                                    simplify=simplify)
    return sc_route(network, source, target, simplify=simplify)


def route_payloads(
    network: SuperCayleyNetwork,
    sources: np.ndarray,
    targets: np.ndarray,
    words: Sequence[Sequence[str]],
    algorithm: str,
) -> List[Dict[str, object]]:
    """Routes in wire form — the exact dicts the engine's ``route`` op
    emits and ``repro route --json`` prints, so the two paths can be
    diffed byte-for-byte.  ``words[i]`` routes row ``i`` of the ``(m,
    k)`` symbol matrices ``sources`` -> ``targets``.  ``optimal`` is
    read off the compiled distances (``None`` when the network cannot
    compile) and ``star_distance`` is the closed form, each one array
    pass over the relative labels."""
    rel = relative_labels(sources, targets)
    stars = star_distance_array(rel).tolist()
    if network.can_compile():
        optimal = network.compiled().distances[rank_array(rel)].tolist()
    else:
        optimal = [None] * len(stars)
    name = network.name
    return [
        {
            "network": name,
            "source": source,
            "target": target,
            "algorithm": algorithm,
            "word": list(word),
            "hops": len(word),
            "star_distance": star,
            "optimal": best,
        }
        for source, target, word, star, best in zip(
            node_strs(sources), node_strs(targets), words, stars, optimal
        )
    ]


def _unreachable(
    network: SuperCayleyNetwork, source: np.ndarray, target: np.ndarray
) -> QueryError:
    return QueryError(
        f"{node_str(target)} unreachable from {node_str(source)} "
        f"in {network.name}"
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class QueryEngine:
    """Answer batched protocol requests over warm compiled graphs.

    Parameters
    ----------
    table_cache:
        Optional directory of compiled-table stores: warm graphs attach
        the store file ``<table_cache>/<name>.tables``, creating it on
        a miss (:func:`repro.io.attach_compiled_tables`).
    shared_tables:
        Without ``table_cache``, attach the family's store file in
        ``/dev/shm`` the same way instead of compiling privately.
        Either store gives zero-copy read-only views of one host-wide
        copy, and degrades to a private compile only when the shared
        path fails.  Each acquisition increments ``serve.table_attach``
        with a ``mode=create|attach|fallback`` label.
    on_table_create:
        Called with the segment name whenever this engine *creates* a
        ``/dev/shm`` store — the hook shard workers use to ship
        ownership to the pool parent so drain can unlink it.  A cache
        store is never reported: nothing unlinks it.
    max_graphs / max_route_tables / max_embeddings:
        LRU capacities for the three caches.  Evictions increment
        ``serve.table_evictions`` with a ``cache`` label.
    """

    def __init__(
        self,
        table_cache: Optional[str] = None,
        shared_tables: bool = False,
        on_table_create: Optional[Callable[[str], None]] = None,
        max_graphs: int = DEFAULT_MAX_GRAPHS,
        max_route_tables: int = DEFAULT_MAX_ROUTE_TABLES,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
    ):
        self.table_cache = table_cache
        self.shared_tables = shared_tables
        self.on_table_create = on_table_create
        self._graphs = LRUCache(
            max_graphs, metric=EVICTION_METRIC, cache="serve-graphs"
        )
        self._route_tables = LRUCache(
            max_route_tables, metric=EVICTION_METRIC,
            cache="serve-route-tables",
        )
        self._embeddings = LRUCache(
            max_embeddings, metric=EVICTION_METRIC, cache="serve-embeddings"
        )

    # -- cache plumbing -------------------------------------------------

    def network(self, spec: Dict[str, object]) -> SuperCayleyNetwork:
        """The warm network for a spec dict (LRU-cached, optionally
        attached from a table store)."""
        if not isinstance(spec, dict) or "family" not in spec:
            raise QueryError(f"bad network spec {spec!r}")
        key = spec_key(spec)
        net = self._graphs.get(key)
        if net is None:
            params = {
                k: v for k, v in spec.items()
                if k != "family" and v is not None
            }
            try:
                net = make_network(spec["family"], **params)
            except (TypeError, ValueError) as exc:
                raise QueryError(f"bad network spec {spec!r}: {exc}") from exc
            if not net.can_compile():
                raise QueryError(
                    f"{net.name} is not materialisable (k = {net.k}); "
                    "the serve engine only answers compiled instances"
                )
            if self.shared_tables or self.table_cache is not None:
                self._acquire_shared(net)
            self._graphs.put(key, net)
        return net

    def _acquire_shared(self, net: SuperCayleyNetwork) -> None:
        """Attach-first warm-up: one host copy of the tables, counted
        on ``serve.table_attach{mode=...}``; created ``/dev/shm``
        stores are reported to :attr:`on_table_create` for pool-drain
        unlink."""
        from ..io import attach_compiled_tables

        compiled, mode = attach_compiled_tables(
            net, cache_dir=self.table_cache
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.table_attach").inc(1, mode=mode)
        store = getattr(compiled, "_store", None)
        if (
            self.on_table_create is not None
            and store is not None
            and store.created
            and store.shared
        ):
            self.on_table_create(store.name)

    def table_bytes(self) -> Dict[str, int]:
        """Bytes of table arrays held by warm graphs, split into
        ``private`` copies vs ``shared`` (store-attached) views — the
        per-worker RSS accounting behind ``repro top``."""
        totals = {"private": 0, "shared": 0}
        for net in self._graphs.values():
            compiled = net.compiled_or_none()
            if compiled is None:
                continue
            for kind, nbytes in compiled.table_nbytes().items():
                totals[kind] += nbytes
        return totals

    def route_table(
        self, net: SuperCayleyNetwork, target_id: int
    ) -> np.ndarray:
        """The per-target reverse-BFS table, LRU-cached across requests
        (hotspot traffic keeps hitting the same handful of targets)."""
        key = (net.name, int(target_id))
        return self._route_tables.get_or_create(
            key, lambda: layered_bfs(net.compiled().inverse_moves, target_id)
        )

    def cache_stats(self) -> Dict[str, object]:
        """Sizes and lifetime evictions of the engine caches."""
        return {
            "graphs": len(self._graphs),
            "route_tables": len(self._route_tables),
            "embeddings": len(self._embeddings),
            "evictions": (
                self._graphs.evictions + self._route_tables.evictions
                + self._embeddings.evictions
            ),
            "table_bytes": self.table_bytes(),
        }

    def publish_cache_gauges(self, registry) -> None:
        """Current cache occupancy as ``serve.cache_entries`` /
        ``serve.table_bytes`` gauge rows.  Called once per batch (at
        the end of :meth:`execute_many`, and before each shard worker's
        snapshot ship), not per request; the shard pool's parent reads
        these off shipped worker snapshots."""
        gauge = registry.gauge("serve.cache_entries")
        gauge.set(len(self._graphs), cache="graphs")
        gauge.set(len(self._route_tables), cache="route-tables")
        gauge.set(len(self._embeddings), cache="embeddings")
        table_gauge = registry.gauge("serve.table_bytes")
        for kind, nbytes in self.table_bytes().items():
            table_gauge.set(nbytes, kind=kind)

    # -- protocol entry points ------------------------------------------

    def execute(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one request; errors come back as ``ok: false``
        responses, never exceptions (the protocol boundary).

        Sampled requests (a ``trace`` context on the wire) emit an
        ``engine.execute`` remote span — the innermost hop of the
        distributed trace; unsampled requests pay one dict lookup."""
        ctx = extract(request)
        if ctx is None:
            return self._execute_inner(request)
        with start_span(
            "engine.execute", ctx, {"op": str(request.get("op"))},
        ) as span:
            response = self._execute_inner(request)
            span.ok = bool(response.get("ok"))
            return response

    def _execute_inner(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        op = request.get("op")
        handler = self._HANDLERS.get(op)
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.queries").inc(1, op=str(op))
        if handler is None:
            return self._fail(request, f"unknown op {op!r}")
        with get_tracer().span("serve.execute", op=str(op)):
            try:
                result = handler(self, request)
            except QueryError as exc:
                return self._fail(request, str(exc))
            except NotImplementedError as exc:
                return self._fail(request, f"unsupported: {exc}")
            except Exception as exc:
                # The protocol boundary: any malformed-but-JSON request
                # (wrong types, short pairs, bad shapes) comes back as
                # ok: false, never as an exception to the caller.
                return self._fail(
                    request, f"bad request: {type(exc).__name__}: {exc}"
                )
        response = {"ok": True, "op": op, "result": result}
        if "id" in request:
            response["id"] = request["id"]
        return response

    def execute_many(
        self, requests: Sequence[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Answer a batch, one vectorised pass per op and network.

        This is the micro-batching kernel behind the TCP server.  The
        batch's ``distance`` requests and its pair-form table ``route``
        requests (``pairs`` or ``symbols``, no ``target``, ``algorithm``
        absent or ``"table"``) are grouped by op and network spec; each
        group of two or more runs through :meth:`_coalesced`.  Everything
        else (singletons, hotspot and algorithmic routes, other ops, a
        ``network`` that is no dict) runs through :meth:`execute`.
        Responses come back in request order.
        """
        responses: List[Optional[Dict[str, object]]] = [None] * len(requests)
        groups: Dict[Tuple, List[int]] = {}
        for i, request in enumerate(requests):
            op = request.get("op")
            network = request.get("network")
            if not isinstance(network, dict) \
                    or ("pairs" not in request and "symbols" not in request):
                continue
            if op == "route":
                if "target" in request \
                        or request.get("algorithm", "table") != "table":
                    continue
            elif op != "distance":
                continue
            try:
                key = (op, spec_key(network))
            except TypeError:  # unorderable spec keys: execute() answers
                continue
            groups.setdefault(key, []).append(i)
        for (op, _), indices in groups.items():
            if len(indices) < 2:
                continue
            merged = self._coalesced(op, [requests[i] for i in indices])
            if merged is None:
                continue
            for i, response in zip(indices, merged):
                responses[i] = response
        responses = [
            self.execute(request) if response is None else response
            for request, response in zip(requests, responses)
        ]
        registry = get_registry()
        if registry.enabled:
            self.publish_cache_gauges(registry)
        return responses

    def _coalesced(
        self, op: str, requests: List[Dict[str, object]]
    ) -> Optional[List[Dict[str, object]]]:
        """One vectorised pass for a group of same-network ``distance``
        or table ``route`` requests, or ``None`` to fall back to
        per-request execution (any malformed member poisons the
        merge)."""
        # Sampled members still get their engine.execute span even
        # though the coalesced path bypasses execute(); on fallback the
        # spans are discarded unclosed (the per-request retry emits its
        # own) so a trace never shows the same hop twice.
        spans = []
        for request in requests:
            span = start_span(
                "engine.execute", extract(request),
                {"op": op, "coalesced": True},
            )
            if span is not None:
                span.__enter__()
                spans.append(span)
        try:
            net = self.network(requests[0].get("network"))
            sizes: List[int] = []
            s_blocks: List[np.ndarray] = []
            t_blocks: List[np.ndarray] = []
            for request in requests:
                s, t = self._request_symbols(net, request,
                                             validate=False)
                sizes.append(s.shape[0])
                s_blocks.append(s)
                t_blocks.append(t)
            # one copy and one permutation check for the whole merge
            # (binary-path members skipped theirs above); a bad row
            # poisons the merge and the per-request fallback re-raises
            # precisely
            stacked = np.concatenate(s_blocks + t_blocks)
            validate_symbols(stacked, net.k)
            rows = len(stacked) // 2
            stacked_s, stacked_t = stacked[:rows], stacked[rows:]
            if op == "distance":
                field = "distances"
                answers = self._distances_from_symbols(
                    net, stacked_s, stacked_t
                )
            else:
                field = "routes"
                answers = route_payloads(
                    net, stacked_s, stacked_t,
                    self._tree_words(net, stacked_s, stacked_t), "table",
                )
        except (QueryError, KeyError, TypeError, ValueError):
            return None
        for span in spans:
            span.__exit__(None, None, None)
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.queries").inc(len(requests), op=op)
            registry.counter("serve.coalesced_requests").inc(len(requests))
        responses = []
        offset = 0
        for request, size in zip(requests, sizes):
            response = {
                "ok": True, "op": op,
                "result": {
                    "network": net.name,
                    field: answers[offset:offset + size],
                },
            }
            offset += size
            if "id" in request:
                response["id"] = request["id"]
            responses.append(response)
        return responses

    @staticmethod
    def _fail(
        request: Dict[str, object], message: str
    ) -> Dict[str, object]:
        response = {"ok": False, "op": request.get("op"), "error": message}
        if "id" in request:
            response["id"] = request["id"]
        return response

    # -- op: distance ---------------------------------------------------

    def _parse_ids(
        self, net: SuperCayleyNetwork, nodes: Sequence[NodeSpec]
    ) -> np.ndarray:
        return parse_ids(nodes, net.k)

    @staticmethod
    def _check_symbols(
        net: SuperCayleyNetwork, symbols: object, validate: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate a binary-protocol ``symbols`` value — two ``(m,
        k)`` matrices (sources, targets) — into int64 arrays safe for
        the kernels.  Decoded wire bytes are untrusted: every row gets
        the same permutation check string parsing performs.

        ``validate=False`` skips the per-matrix permutation check (but
        never the shape checks) for callers that validate a whole
        coalesced stack in one pass instead.
        """
        try:
            s, t = symbols
            s = np.asarray(s, dtype=np.int64)
            t = np.asarray(t, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise QueryError(f"bad \"symbols\": {exc}") from exc
        if s.ndim != 2 or s.shape != t.shape or s.shape[1] != net.k:
            raise QueryError(
                f"\"symbols\" must be two (m, {net.k}) matrices, got "
                f"shapes {s.shape} and {t.shape}"
            )
        if validate:
            # one fused pass over both matrices — numpy per-call
            # overhead dwarfs the extra concatenate at batch sizes
            validate_symbols(np.concatenate((s, t)), net.k)
        return s, t

    def _request_symbols(
        self,
        net: SuperCayleyNetwork,
        request: Dict[str, object],
        validate: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The request's pair batch as two symbol matrices, whichever
        wire form it arrived in (binary ``symbols`` columns or JSON
        ``pairs``).  ``validate=False`` defers the permutation check to
        the caller (string-parsed pairs are always validated as part of
        parsing)."""
        if "symbols" in request:
            return self._check_symbols(
                net, request["symbols"], validate=validate
            )
        pairs = check_pairs(request["pairs"])
        nodes = parse_symbols(
            [p[0] for p in pairs] + [p[1] for p in pairs], net.k
        )
        return nodes[:len(pairs)], nodes[len(pairs):]

    @staticmethod
    def _distances_from_symbols(
        net: SuperCayleyNetwork, s: np.ndarray, t: np.ndarray
    ) -> List[int]:
        if s.shape[0] == 0:
            return []
        compiled = net.compiled()
        # straight from wire symbols to relative ranks — no node-ID
        # ranking round-trip for the hottest op
        rel = relative_ranks_of_symbols(s, t)
        return compiled.distances[rel].tolist()

    def _op_distance(self, request: Dict[str, object]) -> Dict[str, object]:
        net = self.network(request.get("network"))
        if "symbols" not in request and request.get("pairs") is None:
            raise QueryError("distance needs \"pairs\" or \"symbols\"")
        s, t = self._request_symbols(net, request)
        return {
            "network": net.name,
            "distances": self._distances_from_symbols(net, s, t),
        }

    # -- op: route ------------------------------------------------------

    def _op_route(self, request: Dict[str, object]) -> Dict[str, object]:
        """Route extraction.

        Each request shape is parsed once into two ``(m, k)`` symbol
        matrices: ``pairs`` (independent JSON source/target pairs),
        ``symbols`` (the binary column frame of such pairs) or
        ``target`` + ``sources`` (hotspot form).  ``algorithm`` selects
        ``"table"`` (shortest, default) or ``"algorithmic"`` (the
        per-family router ``repro route`` uses).  Table routes for
        pairs walk the identity-rooted BFS tree for every pair at once
        (left translation to ``s^-1 t``); hotspot table routes descend
        greedily on the LRU-cached per-target reverse-BFS table.
        """
        net = self.network(request.get("network"))
        algorithm = request.get("algorithm", "table")
        if algorithm not in ("table", "algorithmic"):
            raise QueryError(f"unknown route algorithm {algorithm!r}")
        hotspot = "symbols" not in request \
            and "target" in request and "sources" in request
        if hotspot:
            nodes = parse_symbols(
                [request["target"], *request["sources"]], net.k
            )
            sources = nodes[1:]
            targets = np.repeat(nodes[:1], len(sources), axis=0)
        elif "symbols" in request or "pairs" in request:
            sources, targets = self._request_symbols(net, request)
        else:
            raise QueryError(
                "route needs \"pairs\" or \"target\" + \"sources\""
            )
        if algorithm == "algorithmic":
            words = [
                algorithmic_route(net, Permutation(s), Permutation(t))
                for s, t in zip(sources.tolist(), targets.tolist())
            ]
        elif hotspot:
            words = self._descend_words(net, sources, targets)
        else:
            words = self._tree_words(net, sources, targets)
        return {
            "network": net.name,
            "routes": route_payloads(
                net, sources, targets, words, algorithm
            ),
        }

    @staticmethod
    def _tree_words(
        net: SuperCayleyNetwork, sources: np.ndarray, targets: np.ndarray
    ) -> List[List[str]]:
        """BFS-tree words for independent pairs: one relative-rank pass,
        one :func:`tree_words` walk up the identity-rooted tree."""
        compiled = net.compiled()
        rel = relative_ranks_of_symbols(sources, targets)
        depths = compiled.distances[rel]
        if (depths < 0).any():
            i = int(np.argmax(depths < 0))
            raise _unreachable(net, sources[i], targets[i])
        names = compiled.gen_names
        return [
            [names[g] for g in word]
            for word in tree_words(
                compiled.parent, compiled.parent_gen, rel, depths
            )
        ]

    def _descend_words(
        self, net: SuperCayleyNetwork, sources: np.ndarray,
        targets: np.ndarray,
    ) -> List[List[str]]:
        """Greedy-descent words from every source to the one target."""
        if not len(sources):
            return []
        compiled = net.compiled()
        target_id = int(rank_array(targets[0])[0])
        table = self.route_table(net, target_id)
        names = compiled.gen_names
        words = []
        for i, source_id in enumerate(rank_array(sources).tolist()):
            word = descend(compiled.moves, table, source_id, target_id)
            if word is None:
                raise _unreachable(net, sources[i], targets[i])
            words.append([names[g] for g in word])
        return words

    # -- op: neighbors --------------------------------------------------

    def _op_neighbors(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        net = self.network(request.get("network"))
        nodes = request.get("nodes")
        if nodes is None:
            raise QueryError("neighbors needs \"nodes\"")
        compiled = net.compiled()
        ids = self._parse_ids(net, nodes)
        # moves[:, ids] is one gather for the whole batch.
        heads = compiled.moves[:, ids] if len(ids) else None
        labels = compiled.labels
        out = []
        for col in range(len(ids)):
            out.append({
                dim: node_str(labels[int(heads[g, col])])
                for g, dim in enumerate(compiled.gen_names)
            })
        return {"network": net.name, "neighbors": out}

    # -- op: embedding --------------------------------------------------

    def _op_embedding(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Guest-address -> host-node lookup through a Section 5
        embedding (Lavault-style: serve the node map itself)."""
        net = self.network(request.get("network"))
        guest = request.get("guest", "star")
        embedding = self._embedding_for(net, guest)
        images = [
            node_str(embedding.map_node(parse_node(v, net.k)))
            for v in request.get("nodes", [])
        ]
        return {
            "network": net.name,
            "guest": guest,
            "name": embedding.name,
            "images": images,
        }

    def _embedding_for(self, net: SuperCayleyNetwork, guest: str):
        from ..embeddings import embed_star, embed_transposition_network

        builders = {
            "star": embed_star,
            "tn": embed_transposition_network,
        }
        if guest not in builders:
            raise QueryError(
                f"unknown guest {guest!r} (expected one of "
                f"{sorted(builders)})"
            )
        return self._embeddings.get_or_create(
            (net.name, guest), lambda: builders[guest](net)
        )

    # -- op: properties -------------------------------------------------

    def _op_properties(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        net = self.network(request.get("network"))
        compiled = net.compiled()
        return {
            "network": net.name,
            "family": net.family,
            "k": net.k,
            "nodes": net.num_nodes,
            "degree": net.degree,
            "diameter": compiled.diameter(),
            "average_distance": compiled.average_distance(),
            "connected": compiled.is_connected(),
        }

    _HANDLERS = {
        "distance": _op_distance,
        "route": _op_route,
        "neighbors": _op_neighbors,
        "embedding": _op_embedding,
        "properties": _op_properties,
    }

    def __repr__(self) -> str:
        return (
            f"<QueryEngine: {len(self._graphs)} warm graphs, "
            f"{len(self._route_tables)} route tables, "
            f"table_cache={self.table_cache!r}>"
        )
