"""Memory-bounded frontier BFS: layer profiles without a node table.

:class:`FrontierBFS` explores a Cayley/super-Cayley graph from the
identity one layer at a time, holding only the current frontier (as an
encoded state matrix), the visited set, and — when a spill dir is
given — streaming completed layers through ``.npy`` segments on disk.
``memory_budget_bytes`` sizes the expansion batches
(:func:`~repro.frontier.encoding.chunk_rows`) and the spill threshold,
and decides whether the visited set is a ``k!``-bit map.  It does not
bound the layers: without a spill dir the current and next layers stay
in RAM, ``k`` bytes per state.  MS(9,1)'s 3.6M-state profile completes
in tens of MB where :class:`~repro.core.compiled.CompiledGraph` would
want hundreds; MS(10,1)'s two widest layers alone take 250 MB in RAM.

Visited set
-----------
Every family is a Cayley graph on Sym(k), so its nodes are exactly the
Lehmer ranks ``0 .. k!-1``, which are the exact keys for ``k <= 20``.
When the ``k!``-bit :class:`~repro.frontier.encoding.VisitedMap` fits in
half the budget (``k <= 11`` at the 64 MiB default), the engine keeps
that map: each batch tests it once (:func:`~repro.frontier.encoding
.in_any`) and sets the survivors' bits once, for directed and
undirected families alike.  The bidirectional balls
(:mod:`~repro.frontier.bidirectional`) run the same batch step, each on
half the budget.

Hashed keys (``k > 20``) and maps that do not fit fall back to a window
of sorted keys, tested by ``searchsorted``.  For **undirected**
families (inverse-closed generator sets) a candidate at depth ``d+1``
can only collide with depths ``d-1``, ``d`` or ``d+1`` (adjacent nodes
differ by at most one in identity-distance), so the window holds three
key sets: previous layer, current layer, and the accumulating next
layer.  **Directed** families (rotator nuclei) lack that symmetry, so a
ring of *all* visited layers' keys is kept — 8 bytes per state.

Tie-break parity
----------------
Candidates are generated frontier-major, generator-minor
(:func:`~repro.frontier.encoding.expand_states`) and deduped by
:func:`~repro.core.compiled.first_occurrence`, batch by batch — the exact
discovery order of the compiled whole-frontier BFS.  Layer contents and
their order are therefore byte-identical to ``CompiledGraph`` (asserted
by ``tests/test_frontier.py``) on either visited set, and invariant
under ``memory_budget_bytes``: shrinking the budget changes batch
counts, never results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..core.compiled import first_occurrence
from ..core.permutations import factorial
from ..core.tablestore import store_digest
from ..obs import get_registry, get_tracer
from .encoding import (
    STATE_DTYPE,
    VisitedMap,
    chunk_rows,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    make_key_fn,
)
from .spill import FrontierRunDir, SpillError

#: default exploration budget: enough for MS(9,1) with lots of headroom,
#: a fraction of the materialised-table footprint at the same k.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024


@dataclass
class FrontierResult:
    """Everything a frontier run produces (layer profile first)."""

    network: str
    k: int
    layer_sizes: List[int]
    num_states: int
    diameter: int
    batches: int
    candidates: int
    memory_budget_bytes: int
    chunk_rows: int
    exact_keys: bool
    undirected: bool
    spill_segments: int = 0
    spilled_bytes: int = 0
    resumed_from: Optional[int] = None
    elapsed_seconds: float = 0.0
    run_dir: Optional[str] = None
    #: populated only with ``keep_layers=True`` (small-k testing):
    #: per-layer state matrices in discovery order.
    layers: Optional[List[np.ndarray]] = None

    @property
    def dedup_ratio(self) -> float:
        """Accepted states per generated candidate (1.0 = no waste)."""
        return self.num_states / self.candidates if self.candidates else 1.0

    def row(self) -> dict:
        return {
            "network": self.network,
            "k": self.k,
            "num_states": self.num_states,
            "diameter": self.diameter,
            "layer_sizes": list(self.layer_sizes),
            "batches": self.batches,
            "dedup_ratio": round(self.dedup_ratio, 6),
            "memory_budget_bytes": self.memory_budget_bytes,
            "chunk_rows": self.chunk_rows,
            "exact_keys": self.exact_keys,
            "spill_segments": self.spill_segments,
            "spilled_bytes": self.spilled_bytes,
            "resumed_from": self.resumed_from,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


class FrontierBFS:
    """One identity-rooted, memory-bounded BFS over ``graph``.

    Parameters
    ----------
    graph:
        any :class:`~repro.core.cayley.CayleyGraph`; ``k`` may exceed
        the compiled engine's materialisation ceiling.
    memory_budget_bytes:
        sizes the batches and the spill threshold, and decides whether
        the visited set is a map; the layers are not counted.
    spill_dir:
        run directory for on-disk frontiers.  Without it, completed
        layers' *states* are dropped as soon as the next layer is done
        (the visited set remembers them) — fine for profiles, required
        off for ``resume``.
    resume:
        reopen ``spill_dir`` from its last journaled layer instead of
        starting over (the journal must match this graph's digest).
    keep_layers:
        retain every layer's states in the result — testing aid,
        defeats the memory bound.
    on_layer:
        callback ``(depth, size)`` after each completed (and, when
        spilling, journaled) layer — progress hooks and crash tests.
    cleanup:
        remove the run dir when the search completes (kept on error).
    """

    def __init__(
        self,
        graph,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        spill_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        keep_layers: bool = False,
        key_seed: int = 0,
        on_layer: Optional[Callable[[int, int], None]] = None,
        cleanup: bool = True,
    ):
        if graph.k > 255:
            raise ValueError("uint8 state encoding requires k <= 255")
        if resume and spill_dir is None:
            raise ValueError("resume requires a spill_dir")
        self.graph = graph
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.resume = resume
        self.keep_layers = keep_layers
        self.key_seed = key_seed
        self.on_layer = on_layer
        self.cleanup = cleanup

    # -- public API -----------------------------------------------------

    def run(self) -> FrontierResult:
        graph = self.graph
        k = graph.k
        columns = generator_columns(graph)
        degree = len(columns)
        undirected = graph.is_undirectable()
        state = _SearchState.open(
            k, undirected, self.memory_budget_bytes, self.key_seed
        )
        chunk = chunk_rows(self.memory_budget_bytes, k, degree)
        spill_threshold = max(4096, self.memory_budget_bytes // 4)
        registry = get_registry()
        started = time.perf_counter()

        run: Optional[FrontierRunDir] = None
        if self.spill_dir is not None:
            digest = store_digest(graph)
            meta = {
                "network": graph.name,
                "k": k,
                "memory_budget_bytes": self.memory_budget_bytes,
            }
            if self.resume:
                run = FrontierRunDir.resume(self.spill_dir, digest)
                if run.complete:
                    raise SpillError(
                        f"run at {self.spill_dir} already completed — "
                        "nothing to resume"
                    )
            else:
                run = FrontierRunDir.create(self.spill_dir, digest, meta)

        result = FrontierResult(
            network=graph.name, k=k, layer_sizes=[], num_states=0,
            diameter=0, batches=0, candidates=0,
            memory_budget_bytes=self.memory_budget_bytes,
            chunk_rows=chunk, exact_keys=state.exact, undirected=undirected,
            layers=[] if self.keep_layers else None,
        )

        with get_tracer().span(
            "frontier.bfs", network=graph.name, k=k,
            budget=self.memory_budget_bytes,
        ) as span:
            try:
                if run is not None and self.resume and run.layers:
                    self._restore(run, state, result)
                else:
                    self._seed_identity(run, state, result, k)
                self._explore(
                    run, state, result, columns, chunk,
                    spill_threshold, registry,
                )
            except BaseException:
                if run is not None:
                    run.abandon()  # journaled layers stay for --resume
                raise
            if run is not None:
                result.spill_segments = sum(
                    len(e["segments"]) for e in run.layers
                )
                run.finish(cleanup=self.cleanup)
                if not self.cleanup:
                    result.run_dir = str(run.path)
            result.diameter = len(result.layer_sizes) - 1
            result.elapsed_seconds = time.perf_counter() - started
            span.set(
                depth=result.diameter, states=result.num_states,
                batches=result.batches,
            )
        return result

    # -- setup ----------------------------------------------------------

    def _seed_identity(self, run, state, result, k: int) -> None:
        root = identity_state(k)
        state.seed(root)
        result.layer_sizes.append(1)
        result.num_states += 1
        if result.layers is not None:
            result.layers.append(root.copy())
        if run is not None:
            run.commit_layer(0, 1, [run.write_segment(0, 0, root)])
        if self.on_layer is not None:
            self.on_layer(0, 1)

    def _restore(self, run, state, result) -> None:
        """Rebuild the visited set and frontier from a journaled run
        dir, keying every journaled layer the visited set needs."""
        depth = len(run.layers) - 1
        result.resumed_from = depth
        for entry in run.layers:
            result.layer_sizes.append(int(entry["size"]))
            result.num_states += int(entry["size"])
        if self.keep_layers:
            raise SpillError("keep_layers cannot be combined with resume")

        def layer_keys(d: int) -> np.ndarray:
            return np.concatenate(
                [state.key_fn(seg) for seg in run.load_layer(d)]
            )

        state.frontier = _DiskLayer(run, depth)
        state.load(layer_keys, depth)

    # -- the layer loop --------------------------------------------------

    def _explore(self, run, state, result, columns, chunk,
                 spill_threshold, registry) -> None:
        depth = len(result.layer_sizes) - 1
        width_gauge = registry.gauge("frontier.layer_width")
        dedup_gauge = registry.gauge("frontier.dedup_ratio")
        spill_counter = registry.counter("frontier.spill_bytes")
        batch_hist = registry.histogram("frontier.batch_seconds")
        net = self.graph.name

        while True:
            new = _LayerBuilder(
                run=run, depth=depth + 1, threshold=spill_threshold,
            )
            layer_candidates = 0
            for states in state.frontier.pieces(chunk):
                t0 = time.perf_counter()
                fresh = state.expand(states, columns)[0]
                if fresh.shape[0]:
                    new.add(fresh)
                layer_candidates += states.shape[0] * len(columns)
                result.batches += 1
                batch_hist.observe(
                    time.perf_counter() - t0, network=net
                )
            size = new.size
            if not size:
                result.candidates += layer_candidates
                break
            depth += 1
            state.frontier.discard()
            ram_states = new.seal()
            if run is not None:
                run.commit_layer(depth, size, new.segment_names)
                state.frontier = _DiskLayer(run, depth)
            else:
                state.frontier = _RamLayer(ram_states)
            result.layer_sizes.append(size)
            result.num_states += size
            result.candidates += layer_candidates
            result.spilled_bytes += new.spilled_bytes
            if new.spilled_bytes:
                spill_counter.inc(new.spilled_bytes, network=net)
            width_gauge.set(size, network=net, depth=str(depth))
            dedup_gauge.set(
                size / layer_candidates if layer_candidates else 1.0,
                network=net,
            )
            if result.layers is not None:
                result.layers.append(
                    np.concatenate(list(state.frontier.pieces(1 << 30)))
                )
            state.seal()
            if self.on_layer is not None:
                self.on_layer(depth, size)


# ----------------------------------------------------------------------
# Internal plumbing
# ----------------------------------------------------------------------


@dataclass
class _SearchState:
    """One search's visited set, frontier and batch step.

    ``visited`` is the rank bit map when the engine keeps one.  Without
    it the visited set is ``window``, the sorted keys of the last two
    layers (undirected) or of every layer (directed), newest first, plus
    ``pending``, the sorted keys of the layer being built."""

    key_fn: Callable
    exact: bool
    undirected: bool
    frontier: object = None
    visited: Optional[VisitedMap] = None
    window: List[np.ndarray] = field(default_factory=list)
    pending: List[np.ndarray] = field(default_factory=list)

    @classmethod
    def open(cls, k: int, undirected: bool, budget: int,
             key_seed: int) -> "_SearchState":
        """Keys for ``k`` symbols, on a ``k!``-bit map when the keys
        are exact and the map fits in half of ``budget``."""
        key_fn, exact = make_key_fn(k, key_seed)
        state = cls(key_fn=key_fn, exact=exact, undirected=undirected)
        if exact and (factorial(k) + 7) // 8 <= budget // 2:
            state.visited = VisitedMap(factorial(k))
        return state

    def seed(self, root: np.ndarray) -> None:
        """Start from the one-row frontier ``root``, its only layer."""
        root_keys = self.key_fn(root)
        self.frontier = _RamLayer([root])
        self.load(lambda _depth: root_keys, 0)

    def guard(self) -> list:
        if self.visited is not None:
            return [self.visited]
        return self.window + self.pending

    def expand(self, states: np.ndarray, columns):
        """One batch: the candidates of ``states`` not seen before, in
        discovery order, and their keys, now marked visited."""
        cand = expand_states(states, columns)
        keys = self.key_fn(cand)
        fresh = np.flatnonzero(~in_any(keys, self.guard()))
        sel = first_occurrence(keys, fresh)
        cand, keys = cand[sel], keys[sel]
        if keys.size:
            self.mark(keys)
        return cand, keys

    def mark(self, keys: np.ndarray) -> None:
        """Add ``keys`` to the visited set: to the map, or to the sorted
        keys of the layer being built."""
        if self.visited is not None:
            self.visited.add(keys)
            return
        self.pending.append(np.sort(keys))
        if len(self.pending) > 8:
            self.pending = [np.sort(np.concatenate(self.pending))]

    def seal(self) -> None:
        """End a non-empty layer: on the window its keys join
        ``window``."""
        if self.visited is not None:
            return
        keys = (
            self.pending[0] if len(self.pending) == 1
            else np.sort(np.concatenate(self.pending))
        )
        self.pending = []
        self.window.insert(0, keys)
        if self.undirected:
            del self.window[2:]

    def load(self, layer_keys: Callable[[int], np.ndarray],
             depth: int) -> None:
        """Fill the visited set from layers ``0 .. depth`` (the last two
        on the undirected window), where ``layer_keys(d)`` returns layer
        ``d``'s keys in any order."""
        short = self.undirected and self.visited is None
        for d in range(max(0, depth - 1) if short else 0, depth + 1):
            self.mark(layer_keys(d))
            self.seal()


class _RamLayer:
    """A frontier held in RAM as a list of state chunks."""

    def __init__(self, chunks: List[np.ndarray]):
        self.chunks = chunks

    def pieces(self, chunk_rows: int):
        for states in self.chunks:
            for lo in range(0, states.shape[0], chunk_rows):
                yield states[lo:lo + chunk_rows]

    def discard(self) -> None:
        self.chunks = []


class _DiskLayer:
    """A journaled frontier streamed from its spill segments."""

    def __init__(self, run: FrontierRunDir, depth: int):
        self.run = run
        self.depth = depth

    def pieces(self, chunk_rows: int):
        for name in self.run.layers[self.depth]["segments"]:
            states = np.load(self.run.path / name)
            for lo in range(0, states.shape[0], chunk_rows):
                yield states[lo:lo + chunk_rows]

    def discard(self) -> None:  # segments stay on disk for resume
        pass


class _LayerBuilder:
    """Accumulates the next layer, flushing to spill segments when the
    in-RAM pending block crosses the threshold."""

    def __init__(self, run: Optional[FrontierRunDir], depth: int,
                 threshold: int):
        self.run = run
        self.depth = depth
        self.threshold = threshold
        self.pending: List[np.ndarray] = []
        self.pending_bytes = 0
        self.segment_names: List[str] = []
        self.spilled_bytes = 0
        self.size = 0

    def add(self, states: np.ndarray) -> None:
        states = np.ascontiguousarray(states, dtype=STATE_DTYPE)
        self.pending.append(states)
        self.pending_bytes += states.nbytes
        self.size += states.shape[0]
        if self.run is not None and self.pending_bytes >= self.threshold:
            self._flush()

    def _flush(self) -> None:
        if not self.pending:
            return
        states = np.concatenate(self.pending)
        self.segment_names.append(self.run.write_segment(
            self.depth, len(self.segment_names), states
        ))
        self.spilled_bytes += states.nbytes
        self.pending, self.pending_bytes = [], 0

    def seal(self) -> List[np.ndarray]:
        """Finish the layer; returns its RAM chunks — empty when
        everything went to disk."""
        if self.run is not None:
            self._flush()
            return []
        return self.pending
