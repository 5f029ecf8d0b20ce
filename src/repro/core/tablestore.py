"""One copy per host: shared-memory / mmap stores for compiled tables.

Every shard worker and cluster replica used to materialise its own
private copy of a family's :class:`~repro.core.compiled.CompiledGraph`
arrays, so worker count per host was bounded by ``table size x
workers``.  This module lays those arrays out **once per host** and
lets every other process attach zero-copy, read-only views:

* **shared-memory segments** — the default: all ten arrays (labels,
  moves, inverse_moves, distances, first_hop, parent, parent_gen,
  order, layer_starts) packed into one named
  :class:`multiprocessing.shared_memory.SharedMemory` segment per
  family, preceded by a JSON manifest (format, ``k``, generator
  names/permutations, dtypes, shapes, per-array CRC32 checksums) that
  attachers validate before trusting a byte;
* **mmap'd ``.npy`` directory stores** — when a ``--table-cache`` path
  is given, the only on-disk format: the same arrays as uncompressed
  ``.npy`` files plus the same manifest as ``manifest.json``, attached
  via ``np.load(mmap_mode="r")`` so the kernel page cache is the
  single host-wide copy *and* it survives restarts.

Every attach, of either kind, validates the manifest and every CRC32
before a view is handed out.

Segment names are deterministic functions of the table contents'
identity (store format, ``k``, generator names and one-line actions),
so independent processes agree on where a family's tables live without
coordination.  Creation is serialised through a **host-level advisory
lock** (:func:`host_lock`, ``flock`` on a lock file): exactly one
process compiles and fills the store while the rest wait and attach —
the cold-start stampede where N workers each run the full BFS becomes
one BFS and N-1 attaches.

Crash safety: the manifest-length header is written *last* during
segment fill, so a half-filled segment reads as "not ready" instead of
as garbage; checksums catch the rest.  Processes that create segments
register them in a per-process ownership set that an ``atexit`` hook
unlinks, and :class:`~repro.serve.shard.ShardPool` /
:class:`~repro.cluster.manager.Replica` tie unlink to pool drain and
replica kill, so crashes don't leak ``/dev/shm``.  (Unlinking only
removes the *name*: live attachments keep their mappings until they
exit, exactly like an unlinked file.)

See ``docs/architecture.md`` ("Memory model") for who creates, who
attaches, and who unlinks.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import shutil
import tempfile
import time
import zlib
from contextlib import contextmanager
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cayley import CayleyGraph
    from .compiled import CompiledGraph

#: store layout version, part of every manifest and segment digest.
STORE_FORMAT = 1

#: every segment this module creates is named ``repro_tbl_<digest>`` —
#: the CI leak check and the crash tests glob ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_tbl_"

#: the arrays a store holds, in layout order.  ``labels`` and the move
#: tables are included so an attaching worker never pays the
#: O(degree * k!) move recompile.
TABLE_ARRAYS = (
    "labels",
    "moves",
    "inverse_moves",
    "distances",
    "first_hop",
    "parent",
    "parent_gen",
    "order",
    "layer_starts",
)

_ALIGN = 64  # per-array alignment inside a segment
_HEADER = 8  # little-endian uint64: manifest byte length (0 = not ready)


class TableStoreError(RuntimeError):
    """A store exists but cannot be trusted (bad manifest, wrong graph,
    checksum mismatch) — callers recreate or fall back."""


class TableStoreMissing(TableStoreError):
    """No store for this graph yet (or it is still being filled)."""


# ----------------------------------------------------------------------
# Identity: digest + deterministic segment name
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
    """The host-wide shared-memory segment name for a graph's tables."""
    return f"{SEGMENT_PREFIX}{store_digest(graph)}"


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
        "first_hop": compiled.first_hop,
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
    the store; the handle keeps the underlying segment / mmap objects
    alive for as long as any consumer holds it (so it is stashed on the
    :class:`~repro.core.compiled.CompiledGraph` built from it).
    """

    def __init__(
        self,
        kind: str,
        name: str,
        arrays: Dict[str, np.ndarray],
        shm: Optional[shared_memory.SharedMemory] = None,
        created: bool = False,
    ):
        self.kind = kind  # "shm" | "mmap"
        self.name = name  # segment name or store directory path
        self.arrays = arrays
        self.created = created
        self._shm = shm

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.arrays.values())

    def __repr__(self) -> str:
        return (
            f"<StoreHandle {self.kind}:{self.name} "
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
    """Remove a segment's name from the host (attached mappings live
    on); returns ``False`` when it was already gone."""
    _OWNED_SEGMENTS.discard(name)
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        return False
    finally:
        seg.close()
    return True


def release_owned_segments() -> int:
    """Unlink everything this process still owns (idempotent; also the
    ``atexit`` safety net for abnormal exits that skip pool close)."""
    released = 0
    for name in list(_OWNED_SEGMENTS):
        if unlink_segment(name):
            released += 1
    return released


# ----------------------------------------------------------------------
# Shared-memory backend
# ----------------------------------------------------------------------


def _shm_layout(
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


def _views_from_buffer(
    buf, manifest: Dict[str, object], writable: bool = False
) -> Dict[str, np.ndarray]:
    views: Dict[str, np.ndarray] = {}
    for name in TABLE_ARRAYS:
        entry = manifest["arrays"][name]
        view = np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(entry["dtype"]),
            buffer=buf,
            offset=entry["offset"],
        )
        if not writable:
            view.flags.writeable = False
        views[name] = view
    return views


def create_segment(
    graph: "CayleyGraph", name: Optional[str] = None
) -> StoreHandle:
    """Lay a graph's compiled tables into a fresh named segment.

    Compiles (or reuses the graph's adopted backend for) every store
    array, creates the segment, copies the arrays, and writes the
    manifest-length header **last** — an attacher racing the fill sees
    "not ready", never garbage.  Raises ``FileExistsError`` when the
    segment already exists (attach instead) — callers serialise
    create-vs-attach through :func:`host_lock`.
    """
    name = name or segment_name(graph)
    arrays = table_arrays(graph.compiled())
    manifest = _build_manifest(graph, arrays)
    manifest, size = _shm_layout(arrays, manifest)
    shm = shared_memory.SharedMemory(create=True, size=size, name=name)
    try:
        views = _views_from_buffer(shm.buf, manifest, writable=True)
        for arr_name, view in views.items():
            view[...] = arrays[arr_name]
            view.flags.writeable = False
        blob = json.dumps(manifest).encode()
        shm.buf[_HEADER:_HEADER + len(blob)] = blob
        # Publish: the length header flips the segment to "ready".
        shm.buf[:_HEADER] = len(blob).to_bytes(_HEADER, "little")
    except BaseException:
        shm.close()
        try:
            shared_memory.SharedMemory(name=name).unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
        raise
    _register_owned(name)
    return StoreHandle("shm", name, views, shm=shm, created=True)


def attach_segment(
    graph: "CayleyGraph", name: Optional[str] = None
) -> StoreHandle:
    """Attach read-only views onto an existing segment.

    Validates the manifest against ``graph`` (format, ``k``, generator
    names/actions, dtypes, shapes) and the per-array CRC32 checksums —
    a few milliseconds for megabyte tables, and the difference between
    "attached" and "attached to a torn write".
    Raises :class:`TableStoreMissing` when the segment does not exist
    or is still being filled.
    """
    name = name or segment_name(graph)
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError) as exc:
        raise TableStoreMissing(
            f"no shared segment {name} for {graph.name}"
        ) from exc
    try:
        header = int.from_bytes(bytes(shm.buf[:_HEADER]), "little")
        if header == 0:
            raise TableStoreMissing(
                f"segment {name} exists but is not ready yet"
            )
        if _HEADER + header > shm.size:
            raise TableStoreError(f"segment {name} header is corrupt")
        try:
            manifest = json.loads(bytes(shm.buf[_HEADER:_HEADER + header]))
        except ValueError as exc:
            raise TableStoreError(
                f"segment {name} manifest is corrupt: {exc}"
            ) from exc
        _validate_manifest(graph, manifest)
        views = _views_from_buffer(shm.buf, manifest)
        _verify_checksums(name, manifest, views)
    except BaseException:
        shm.close()
        raise
    return StoreHandle("shm", name, views, shm=shm, created=False)


def _verify_checksums(
    where: str, manifest: Dict[str, object], views: Dict[str, np.ndarray]
) -> None:
    for arr_name, view in views.items():
        expected = manifest["arrays"][arr_name]["crc32"]
        actual = int(zlib.crc32(np.ascontiguousarray(view).data))
        if actual != expected:
            raise TableStoreError(
                f"checksum mismatch for {arr_name!r} in {where}: "
                f"{actual} != {expected}"
            )


# ----------------------------------------------------------------------
# mmap'd .npy directory backend
# ----------------------------------------------------------------------


def store_dir(graph: "CayleyGraph", cache_dir: Union[str, Path]) -> Path:
    """The on-disk store directory for a graph under a cache root."""
    return Path(cache_dir) / f"{graph.name}.tables"


def create_dir_store(
    graph: "CayleyGraph", cache_dir: Union[str, Path]
) -> StoreHandle:
    """Write the uncompressed ``.npy`` directory store (atomically: a
    temp directory renamed into place), then attach it mmap'd.

    The caller must hold the store's :func:`host_lock`: every
    ``.<name>.tables.tmp*`` sibling is then debris of a creator killed
    mid-write, and is removed before writing.
    """
    final = store_dir(graph, cache_dir)
    final.parent.mkdir(parents=True, exist_ok=True)
    for stale in final.parent.glob(f".{final.name}.tmp*"):
        shutil.rmtree(stale, ignore_errors=True)
    arrays = table_arrays(graph.compiled())
    manifest = _build_manifest(graph, arrays)
    tmp = final.with_name(f".{final.name}.tmp{os.getpid()}")
    tmp.mkdir()
    try:
        for name, arr in arrays.items():
            np.save(tmp / f"{name}.npy", np.ascontiguousarray(arr))
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
        if final.exists():  # invalid store being replaced (under lock)
            shutil.rmtree(final)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    handle = attach_dir_store(graph, cache_dir)
    handle.created = True
    return handle


def attach_dir_store(
    graph: "CayleyGraph", cache_dir: Union[str, Path]
) -> StoreHandle:
    """Attach read-only mmap views onto a ``.npy`` directory store.

    The kernel page cache makes concurrent attachers share one physical
    copy per host.  The rename publish means a visible store is
    complete, but the disk under it can still rot, so the manifest and
    every CRC32 are checked as for a segment.  Raises
    :class:`TableStoreMissing` / :class:`TableStoreError` like the
    segment attach.
    """
    path = store_dir(graph, cache_dir)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise TableStoreMissing(f"no table store at {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise TableStoreError(f"corrupt manifest at {path}: {exc}") from exc
    _validate_manifest(graph, manifest)
    views: Dict[str, np.ndarray] = {}
    for name in TABLE_ARRAYS:
        entry = manifest["arrays"][name]
        try:
            view = np.load(path / f"{name}.npy", mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise TableStoreError(
                f"cannot map {name}.npy in {path}: {exc}"
            ) from exc
        if np.dtype(view.dtype).str != entry["dtype"] \
                or list(view.shape) != entry["shape"]:
            raise TableStoreError(
                f"{name}.npy in {path} does not match its manifest entry"
            )
        views[name] = view
    _verify_checksums(str(path), manifest, views)
    return StoreHandle("mmap", str(path), views, created=False)


# ----------------------------------------------------------------------
# Host-wide hygiene helpers (CI leak check, tests)
# ----------------------------------------------------------------------


def list_host_segments() -> Tuple[str, ...]:
    """Names of every ``repro_tbl_*`` segment currently on the host
    (Linux ``/dev/shm``; empty elsewhere) — the CI leak check."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return ()
    return tuple(sorted(
        p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}*")
    ))
