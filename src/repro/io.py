"""JSON serialization for the library's artefacts.

Schedules, embeddings, and network specifications are expensive to
recompute at scale (a Theorem 4 schedule for MS(8,5) enumerates ~200
transmissions; a validated TN(7) embedding walks ~10^5 paths), so this
module round-trips them through plain JSON:

* **network specs** — ``{"family": "MS", "l": 4, "n": 3}`` rebuild via
  the registry;
* **schedules** — entry triples plus the network spec, revalidated on
  load;
* **word embeddings** — the per-dimension words plus guest/host specs;
* **simulation results** — :class:`repro.comm.SimulationResult` (with
  optional per-round traces) so simulator outcomes can be persisted and
  diffed across runs.

Only word embeddings serialize (function embeddings close over
arbitrary Python callables); that covers every Theorem 1-3/6-7 artefact.

Compiled tables are not JSON: they live in the table stores of
:mod:`repro.core.tablestore`, which :func:`attach_compiled_tables`
creates and attaches (``repro ... --table-cache DIR``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .comm.simulator import SimulationResult
from .core.cayley import CayleyGraph
from .core.compiled import CompiledGraph
from .core import tablestore
from .core.tablestore import (
    StoreHandle,
    TableStoreError,
    TableStoreMissing,
    host_lock,
)
from .core.super_cayley import SuperCayleyNetwork
from .embeddings.base import WordEmbedding
from .emulation.schedule import Schedule, ScheduleEntry
from .networks import make_network
from .topologies import StarGraph, TranspositionNetwork


def network_spec(network: SuperCayleyNetwork) -> Dict[str, object]:
    """The JSON-able constructor arguments of a super Cayley network."""
    if network.family == "IS":
        return {"family": "IS", "k": network.k}
    return {"family": network.family, "l": network.l, "n": network.n}


def network_from_spec(spec: Dict[str, object]) -> SuperCayleyNetwork:
    """Rebuild a network from :func:`network_spec` output."""
    spec = dict(spec)
    family = spec.pop("family")
    return make_network(family, **spec)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> Dict[str, object]:
    return {
        "network": network_spec(schedule.network),
        "entries": [
            [e.time, e.star_dim, e.generator] for e in schedule.entries
        ],
    }


def schedule_from_dict(data: Dict[str, object]) -> Schedule:
    network = network_from_spec(data["network"])
    entries = [
        ScheduleEntry(time, star_dim, generator)
        for time, star_dim, generator in data["entries"]
    ]
    schedule = Schedule(network, entries)
    schedule.validate()
    return schedule


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=1))


def load_schedule(path: Union[str, Path]) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Word embeddings
# ----------------------------------------------------------------------

_GUEST_KINDS = {"star": StarGraph, "tn": TranspositionNetwork}


def word_embedding_to_dict(
    embedding: WordEmbedding, guest_kind: str
) -> Dict[str, object]:
    """Serialize a word embedding whose guest is a star graph
    (``guest_kind="star"``) or transposition network (``"tn"``)."""
    if guest_kind not in _GUEST_KINDS:
        raise ValueError(
            f"guest_kind must be one of {sorted(_GUEST_KINDS)}"
        )
    return {
        "guest": {"kind": guest_kind, "k": embedding.guest.k},
        "host": network_spec(embedding.host),
        "words": {dim: list(word) for dim, word in embedding.words.items()},
        "name": embedding.name,
    }


def word_embedding_from_dict(data: Dict[str, object]) -> WordEmbedding:
    guest = _GUEST_KINDS[data["guest"]["kind"]](data["guest"]["k"])
    host = network_from_spec(data["host"])
    return WordEmbedding(
        guest, host, {d: list(w) for d, w in data["words"].items()},
        name=data.get("name", "loaded-embedding"),
    )


def save_word_embedding(
    embedding: WordEmbedding, guest_kind: str, path: Union[str, Path]
) -> None:
    Path(path).write_text(
        json.dumps(word_embedding_to_dict(embedding, guest_kind), indent=1)
    )


def load_word_embedding(path: Union[str, Path]) -> WordEmbedding:
    return word_embedding_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Simulation results
# ----------------------------------------------------------------------


def save_simulation_result(
    result: SimulationResult, path: Union[str, Path]
) -> None:
    """Persist a simulator outcome (rounds, traffic, optional per-round
    traces) for later comparison across runs."""
    Path(path).write_text(json.dumps(result.to_dict(), indent=1))


def load_simulation_result(path: Union[str, Path]) -> SimulationResult:
    return SimulationResult.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Shared table stores: one copy per host (create / attach / release)
# ----------------------------------------------------------------------


def attach_compiled_tables(
    graph: CayleyGraph,
    cache_dir: Optional[Union[str, Path]] = None,
    create: bool = True,
) -> Tuple[CompiledGraph, str]:
    """Attach-first acquisition of a graph's compiled tables.

    The one entry point for tables that outlive or are shared beyond a
    single compile: ``--table-cache``, ``--shared-tables``, the serve
    engine and the experiment sweeps.  Every process on a host gets
    read-only views of **one** copy of the family's arrays: the store
    file :func:`repro.core.tablestore.store_path` names, which is
    ``<cache_dir>/<name>.tables`` with ``cache_dir`` (it survives
    restarts) and the family's segment in ``/dev/shm`` without.

    Attach is tried first; on a miss the host lock for the store is
    taken, attach retried (someone else usually built it while we
    waited), and only then are the tables compiled and the store
    created — N cold workers run one BFS between them.  A store that
    fails validation (manifest, shapes, CRC32s) is replaced.  Any
    other failure (lock timeout, an unusable cache path, a full
    ``/dev/shm``) degrades to a private in-process compile.

    Returns ``(compiled, mode)`` with mode ``"attach"``, ``"create"``,
    or ``"fallback"``; the compiled view is installed as the graph's
    backend either way.  A created ``/dev/shm`` store is owned by this
    process (see :func:`release_compiled_tables`); a cache store is
    never unlinked.
    """
    if not graph.can_compile():
        raise ValueError(
            f"{graph.name}: k = {graph.k} tables cannot be materialised"
        )

    def _adopt(handle: StoreHandle, mode: str) -> Tuple[CompiledGraph, str]:
        compiled = CompiledGraph.from_store(graph, handle)
        graph.adopt_compiled(compiled)
        return compiled, mode

    try:
        try:
            return _adopt(tablestore.attach_store(graph, cache_dir), "attach")
        except TableStoreError:  # missing, or there but untrustworthy
            pass
        if not create:
            raise TableStoreMissing(f"no table store for {graph.name}")
        # Keyed on the resolved store path; the lock file lives in the
        # host lock directory, so a cache directory holds only stores.
        where = str(tablestore.store_path(graph, cache_dir).resolve())
        lock_key = f"store-{hashlib.sha1(where.encode()).hexdigest()[:12]}"
        with host_lock(lock_key):
            try:
                return _adopt(
                    tablestore.attach_store(graph, cache_dir), "attach"
                )
            except TableStoreError:  # create replaces a bad store
                pass
            return _adopt(tablestore.create_store(graph, cache_dir), "create")
    except TableStoreMissing:
        raise
    except (TableStoreError, OSError, ValueError, MemoryError):
        # The shared path is an optimisation, never a requirement:
        # compile privately and report the degradation as "fallback"
        # so the serve.table_attach counter surfaces it.
        compiled = graph.compiled()
        compiled.distances
        return compiled, "fallback"


def release_compiled_tables(name: Optional[str] = None) -> int:
    """Unlink ``/dev/shm`` stores this process created: the segment
    named, or every owned one (``None``).  Pool drain and replica kill
    route through this so crashed consumers never leak ``/dev/shm``;
    an ``atexit`` hook covers anything that skips it.  Cache stores are
    never owned.  Returns the number of stores actually unlinked."""
    if name is not None:
        return int(tablestore.unlink_segment(name))
    return tablestore.release_owned_segments()
