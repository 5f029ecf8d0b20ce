"""One copy per host: a single mmap'd file holds a family's compiled tables.

Every shard worker and cluster replica used to materialise its own
private copy of a family's :class:`~repro.core.compiled.CompiledGraph`
arrays, so worker count per host was bounded by ``table size x
workers``.  This module lays those arrays out **once per host** and
lets every other process attach zero-copy, read-only views.

A store is one file: an 8-byte little-endian manifest length, the JSON
manifest (format, ``k``, generator names/permutations, and each
array's dtype, shape, offset and CRC32), then the eight
:data:`TABLE_ARRAYS` at 64-byte-aligned offsets.  It lives in one of
two places (:func:`store_path`):

* ``<DIR>/<name>.tables`` under a ``--table-cache`` directory, where it
  survives restarts;
* ``<shared root>/repro_tbl_<digest>`` for ``--shared-tables``, where
  the shared root is ``/dev/shm`` (the temp directory on hosts without
  it).  These are the host's "segments": their owner unlinks them.

Attaching maps the file with one read-only ``mmap``, so the kernel page
cache is the single host-wide copy.  Every attach validates the
manifest and every CRC32 before a view is handed out.

Segment names are deterministic functions of the table contents'
identity (store format, ``k``, generator names and one-line actions),
so independent processes agree on where a family's tables live without
coordination.  Creation is serialised through a **host-level advisory
lock** (:func:`host_lock`, ``flock`` on a lock file): exactly one
process compiles and writes the store while the rest wait and attach —
the cold-start stampede where N workers each run the full BFS becomes
one BFS and N-1 attaches.

Crash safety: a store is written to a temp file beside its final path
and renamed into place, so a visible store is always complete; the
next creator removes the temp file a killed one left behind, and the
checksums catch the rest.  Processes that create a shared-root store
register it in a per-process ownership set that an ``atexit`` hook
unlinks, and :class:`~repro.serve.shard.ShardPool` /
:class:`~repro.cluster.manager.Replica` tie unlink to pool drain and
replica kill, so crashes don't leak ``/dev/shm``.  (Unlinking only
removes the *name*: live attachments keep their mappings until they
exit.)  Attaching never registers anything, so an attacher's exit
leaves the store in place.

See ``docs/architecture.md`` ("Memory model") for who creates, who
attaches, and who unlinks.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import mmap
import os
import shutil
import tempfile
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cayley import CayleyGraph
    from .compiled import CompiledGraph

#: store layout version, part of every manifest and segment digest.
STORE_FORMAT = 1

#: every shared-root store is named ``repro_tbl_<digest>`` — the CI
#: leak check and the crash tests glob ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_tbl_"

#: the arrays a store holds, in layout order.  ``labels`` and the move
#: tables are included so an attaching worker never pays the
#: O(degree * k!) move recompile.  Only these are read, so a store
#: whose manifest lists more arrays still attaches.
TABLE_ARRAYS = (
    "labels",
    "moves",
    "inverse_moves",
    "distances",
    "parent",
    "parent_gen",
    "order",
    "layer_starts",
)

_ALIGN = 64  # per-array alignment inside a store
_HEADER = 8  # little-endian uint64: manifest byte length


class TableStoreError(RuntimeError):
    """A store exists but cannot be trusted (bad manifest, wrong graph,
    checksum mismatch) — callers recreate or fall back."""


class TableStoreMissing(TableStoreError):
    """No store for this graph yet."""


# ----------------------------------------------------------------------
# Identity: digest, deterministic segment name, store path
# ----------------------------------------------------------------------


def _graph_identity(graph: "CayleyGraph") -> Dict[str, object]:
    return {
        "store_format": STORE_FORMAT,
        "k": graph.k,
        "gen_names": [g.name for g in graph.generators],
        "gen_perms": [list(g.perm.symbols) for g in graph.generators],
    }


def store_digest(graph: "CayleyGraph") -> str:
    """Deterministic short digest of the table identity (format, ``k``,
    generator names and actions) — what independent processes hash to
    agree on a segment name."""
    blob = json.dumps(_graph_identity(graph), sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def segment_name(graph: "CayleyGraph") -> str:
    """The file name of a graph's store in the shared root."""
    return f"{SEGMENT_PREFIX}{store_digest(graph)}"


def shared_root() -> Path:
    """Where shared-root stores live: ``/dev/shm`` when the host has
    it, the temp directory otherwise."""
    shm = Path("/dev/shm")
    return shm if shm.is_dir() else Path(tempfile.gettempdir())


def store_path(
    graph: "CayleyGraph", cache_dir: Optional[Union[str, Path]] = None
) -> Path:
    """The one file holding a graph's store: ``<cache_dir>/<name>.tables``
    under a cache directory, else its segment in :func:`shared_root`."""
    if cache_dir is not None:
        return Path(cache_dir) / f"{graph.name}.tables"
    return shared_root() / segment_name(graph)


# ----------------------------------------------------------------------
# Host-level advisory lock
# ----------------------------------------------------------------------

try:  # POSIX: flock; the serving stack only targets Linux/macOS
    import fcntl
except ImportError:  # pragma: no cover - windows
    fcntl = None

#: default directory for lock files (host-wide, survives nothing).
def _default_lock_dir() -> Path:
    return Path(tempfile.gettempdir()) / "repro_locks"


@contextmanager
def host_lock(
    key: str,
    lock_dir: Optional[Union[str, Path]] = None,
    timeout: float = 120.0,
) -> Iterator[None]:
    """Host-level advisory lock: exclusive ``flock`` on a lock file.

    ``key`` names the resource (conventionally a store digest or cache
    file name); all processes on the host that pass the same key and
    ``lock_dir`` serialise.  Acquisition polls non-blocking every 50 ms
    until ``timeout`` (so a wedged holder cannot deadlock the caller
    forever), then raises :class:`TableStoreError`.  On platforms
    without ``fcntl`` the lock degrades to a no-op.
    """
    if fcntl is None:  # pragma: no cover - windows
        yield
        return
    directory = Path(lock_dir) if lock_dir is not None \
        else _default_lock_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.lock"
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o666)
    try:
        deadline = time.monotonic() + timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise TableStoreError(
                        f"timed out after {timeout}s waiting for host "
                        f"lock {path}"
                    ) from None
                time.sleep(0.05)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Array collection + manifest
# ----------------------------------------------------------------------


def table_arrays(compiled: "CompiledGraph") -> Dict[str, np.ndarray]:
    """All store arrays of a compiled graph, forcing lazy builds."""
    compiled.distances  # run the BFS if it has not run yet
    return {
        "labels": compiled.labels,
        "moves": compiled.moves,
        "inverse_moves": compiled.inverse_moves,
        "distances": compiled.distances,
        "parent": compiled.parent,
        "parent_gen": compiled.parent_gen,
        "order": compiled.order,
        "layer_starts": compiled.layer_starts,
    }


def _build_manifest(
    graph: "CayleyGraph", arrays: Dict[str, np.ndarray]
) -> Dict[str, object]:
    manifest = dict(_graph_identity(graph))
    manifest["name"] = graph.name
    manifest["arrays"] = {
        name: {
            "dtype": np.dtype(arr.dtype).str,
            "shape": list(arr.shape),
            "nbytes": int(arr.nbytes),
            "crc32": int(zlib.crc32(np.ascontiguousarray(arr).data)),
        }
        for name, arr in arrays.items()
    }
    return manifest


def _validate_manifest(
    graph: "CayleyGraph", manifest: Dict[str, object]
) -> None:
    expected = _graph_identity(graph)
    for field in ("store_format", "k", "gen_names", "gen_perms"):
        if manifest.get(field) != expected[field]:
            raise TableStoreError(
                f"store manifest mismatch for {graph.name}: "
                f"{field} = {manifest.get(field)!r}, "
                f"expected {expected[field]!r}"
            )
    missing = [n for n in TABLE_ARRAYS if n not in manifest.get("arrays", {})]
    if missing:
        raise TableStoreError(
            f"store for {graph.name} is missing arrays {missing}"
        )


# ----------------------------------------------------------------------
# The attachable handle
# ----------------------------------------------------------------------


class StoreHandle:
    """An attached (or freshly created) table store.

    ``arrays`` maps array name to a **read-only** zero-copy view into
    the store's mapping, which stays alive as long as any view does
    (the :class:`~repro.core.compiled.CompiledGraph` built from the
    handle keeps it).  ``shared`` marks a store in the shared root:
    only those have an owner that unlinks them, by ``name``.
    """

    def __init__(
        self,
        path: Path,
        arrays: Dict[str, np.ndarray],
        shared: bool,
        created: bool = False,
    ):
        self.path = path
        self.name = path.name  # the segment name of a shared-root store
        self.arrays = arrays
        self.shared = shared
        self.created = created

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.arrays.values())

    def __repr__(self) -> str:
        return (
            f"<StoreHandle {self.path} "
            f"{len(self.arrays)} arrays, {self.nbytes} bytes"
            f"{', created' if self.created else ''}>"
        )


# ----------------------------------------------------------------------
# Ownership: who unlinks, and the atexit safety net
# ----------------------------------------------------------------------

_OWNED_SEGMENTS: set = set()


def _register_owned(name: str) -> None:
    if not _OWNED_SEGMENTS:
        atexit.register(release_owned_segments)
    _OWNED_SEGMENTS.add(name)


def unlink_segment(name: str) -> bool:
    """Remove a shared-root store's name from the host (attached
    mappings live on); returns ``False`` when it was already gone."""
    _OWNED_SEGMENTS.discard(name)
    try:
        os.unlink(shared_root() / name)
    except FileNotFoundError:
        return False
    return True


def release_owned_segments() -> int:
    """Unlink every shared-root store this process still owns
    (idempotent; also the ``atexit`` safety net for abnormal exits
    that skip pool close)."""
    released = 0
    for name in list(_OWNED_SEGMENTS):
        if unlink_segment(name):
            released += 1
    return released


# ----------------------------------------------------------------------
# Create and attach
# ----------------------------------------------------------------------


def _layout(
    arrays: Dict[str, np.ndarray], manifest: Dict[str, object]
) -> Tuple[Dict[str, object], int]:
    """Assign aligned offsets; returns (manifest-with-offsets, size)."""
    manifest = json.loads(json.dumps(manifest))  # deep copy
    # Offsets depend on the manifest length, which depends on the
    # offsets: reserve generous fixed-width offsets first, then fill.
    for entry in manifest["arrays"].values():
        entry["offset"] = 0
    probe = json.dumps(manifest).encode()
    # each offset serialises to at most 16 digits more than the probe
    base = _HEADER + len(probe) + 16 * len(arrays)
    offset = (base + _ALIGN - 1) // _ALIGN * _ALIGN
    for name in TABLE_ARRAYS:
        entry = manifest["arrays"][name]
        entry["offset"] = offset
        offset += (entry["nbytes"] + _ALIGN - 1) // _ALIGN * _ALIGN
    blob = json.dumps(manifest).encode()
    if _HEADER + len(blob) > manifest["arrays"][TABLE_ARRAYS[0]]["offset"]:
        raise TableStoreError("manifest overflowed its reservation")
    return manifest, offset


def _remove(path: Path) -> None:
    """Delete a file, or a directory in the old ``.npy`` store layout."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def create_store(
    graph: "CayleyGraph", cache_dir: Optional[Union[str, Path]] = None
) -> StoreHandle:
    """Write a graph's store file, publish it, and attach it.

    Compiles (or reuses the graph's adopted backend for) every store
    array and writes the header, the manifest and the aligned arrays
    to a temp file beside :func:`store_path`, which ``os.replace``
    then publishes: an attacher sees the old store, no store, or the
    whole new one.  A shared-root store is registered as owned as soon
    as it is published.  The caller must hold the store's
    :func:`host_lock`: every ``.<file>.tmp*`` sibling is then debris
    of a creator killed mid-write, and is removed first, as is an
    invalid store being replaced.
    """
    final = store_path(graph, cache_dir)
    final.parent.mkdir(parents=True, exist_ok=True)
    for stale in final.parent.glob(f".{final.name}.tmp*"):
        _remove(stale)
    arrays = table_arrays(graph.compiled())
    manifest, size = _layout(arrays, _build_manifest(graph, arrays))
    blob = json.dumps(manifest).encode()
    tmp = final.with_name(f".{final.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(len(blob).to_bytes(_HEADER, "little"))
            fh.write(blob)
            for name in TABLE_ARRAYS:
                fh.seek(manifest["arrays"][name]["offset"])
                fh.write(np.ascontiguousarray(arrays[name]).data)
            fh.truncate(size)
        if final.is_dir():  # an old-layout store: os.replace cannot
            _remove(final)  # overwrite a directory with a file
        os.replace(tmp, final)
    except BaseException:
        _remove(tmp)
        raise
    if cache_dir is None:
        _register_owned(final.name)
    handle = attach_store(graph, cache_dir)
    handle.created = True
    return handle


def attach_store(
    graph: "CayleyGraph", cache_dir: Optional[Union[str, Path]] = None
) -> StoreHandle:
    """Map a graph's store file read-only and return views into it.

    Validates the manifest against ``graph`` (format, ``k``, generator
    names/actions), the array offsets against the file, and the
    per-array CRC32 checksums — a few milliseconds for megabyte tables,
    and the difference between "attached" and "attached to a rotted
    disk".  Raises :class:`TableStoreMissing` when there is no store
    file and :class:`TableStoreError` when there is one that cannot be
    trusted.
    """
    path = store_path(graph, cache_dir)
    try:
        with open(path, "rb") as fh:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError as exc:
        raise TableStoreMissing(f"no table store at {path}") from exc
    except (OSError, ValueError) as exc:  # a directory, an empty file
        raise TableStoreError(f"cannot map {path}: {exc}") from exc
    try:
        length = int.from_bytes(buf[:_HEADER], "little")
        if not 0 < length <= len(buf) - _HEADER:
            raise TableStoreError(f"{path} header is corrupt")
        manifest = json.loads(buf[_HEADER:_HEADER + length])
        _validate_manifest(graph, manifest)
        views = {}
        for name in TABLE_ARRAYS:
            entry = manifest["arrays"][name]
            view = np.ndarray(
                tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]),
                buffer=buf, offset=entry["offset"],
            )
            actual = zlib.crc32(view.data)
            if actual != entry["crc32"]:
                raise TableStoreError(
                    f"checksum mismatch for {name!r} in {path}: "
                    f"{actual} != {entry['crc32']}"
                )
            views[name] = view
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TableStoreError(f"{path} manifest is corrupt: {exc}") from exc
    return StoreHandle(path, views, shared=cache_dir is None)


# ----------------------------------------------------------------------
# Host-wide hygiene helpers (CI leak check, tests)
# ----------------------------------------------------------------------


def list_host_segments() -> Tuple[str, ...]:
    """Names of every ``repro_tbl_*`` store in the shared root (the CI
    leak check)."""
    return tuple(sorted(
        p.name for p in shared_root().glob(f"{SEGMENT_PREFIX}*")
    ))
