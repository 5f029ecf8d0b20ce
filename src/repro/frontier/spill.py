"""Spill-to-disk frontiers: run dirs, layer journals, crash hygiene.

A frontier run with ``spill_dir`` set streams every completed layer
through disk instead of RAM: layer ``d``'s states land as one or more
``layer_####_####.npy`` segments, and a ``journal.json`` is atomically
rewritten after each *completed* layer.  The journal is the resume
point: it names the graph (via
:func:`repro.core.tablestore.store_digest`), the budget, and for each
finished layer its size and segment files — everything needed
to restart the search from the last completed layer after a crash,
including a SIGKILL that left half-written segments behind (resume
prunes any file the journal does not claim).

Hygiene mirrors the table store's owned-segment registry
(:mod:`repro.core.tablestore`): every run dir this process is actively
writing is registered, and an ``atexit`` (plus best-effort SIGTERM)
backstop removes *orphaned* segments — files belonging to the layer
that was in flight when the process died — while leaving journaled
layers on disk for ``--resume``.  A run that completes cleanly removes
its whole run dir (``keep_on_success`` opts out).
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import signal
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

#: journal schema version.
JOURNAL_FORMAT = 1

JOURNAL_NAME = "journal.json"


class SpillError(RuntimeError):
    """A run dir exists but cannot be resumed (wrong graph, corrupt
    journal, missing segments) — callers start fresh or bail."""


# ----------------------------------------------------------------------
# Orphan backstop: run dirs this process is mid-write on
# ----------------------------------------------------------------------

_ACTIVE_RUNS: Dict[str, "FrontierRunDir"] = {}
_BACKSTOP_LOCK = threading.Lock()
_SIGTERM_INSTALLED = False


def _prune_active_runs() -> None:
    """atexit/SIGTERM backstop: drop un-journaled segments of every run
    this process was still writing (journaled layers stay for resume)."""
    for run in list(_ACTIVE_RUNS.values()):
        try:
            run.prune_orphans()
        except OSError:  # pragma: no cover - best effort on teardown
            pass


def _register_active(run: "FrontierRunDir") -> None:
    global _SIGTERM_INSTALLED
    with _BACKSTOP_LOCK:
        if not _ACTIVE_RUNS:
            atexit.register(_prune_active_runs)
        _ACTIVE_RUNS[str(run.path)] = run
        if not _SIGTERM_INSTALLED:
            _SIGTERM_INSTALLED = True
            try:
                previous = signal.getsignal(signal.SIGTERM)

                def _on_term(signum, frame):  # pragma: no cover - signal
                    _prune_active_runs()
                    if callable(previous):
                        previous(signum, frame)
                    else:
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        os.kill(os.getpid(), signal.SIGTERM)

                signal.signal(signal.SIGTERM, _on_term)
            except ValueError:
                # Not the main thread (e.g. a serve worker): atexit
                # still covers normal exits; SIGKILL is covered by the
                # resume-side prune either way.
                pass


def _unregister_active(run: "FrontierRunDir") -> None:
    with _BACKSTOP_LOCK:
        _ACTIVE_RUNS.pop(str(run.path), None)


# ----------------------------------------------------------------------
# The run dir
# ----------------------------------------------------------------------


class FrontierRunDir:
    """One frontier run's spill directory: segments + layer journal.

    The journal's ``layers`` list only ever grows by *completed*
    layers; segment files are written first, the journal rewrite
    (tmp + ``os.replace``) publishes them.  A crash between the two
    leaves orphan files that :meth:`prune_orphans` (resume, atexit)
    removes.
    """

    def __init__(self, path: Union[str, Path], graph_digest: str,
                 meta: Optional[Dict[str, object]] = None):
        self.path = Path(path)
        self.graph_digest = graph_digest
        self.meta = dict(meta or {})
        self.layers: List[Dict[str, object]] = []
        self.complete = False

    # -- creation / resume ---------------------------------------------

    @classmethod
    def create(cls, path: Union[str, Path], graph_digest: str,
               meta: Optional[Dict[str, object]] = None
               ) -> "FrontierRunDir":
        run = cls(path, graph_digest, meta)
        run.path.mkdir(parents=True, exist_ok=True)
        stale = run.path / JOURNAL_NAME
        if stale.exists():  # a previous run we were told not to resume
            for item in run.path.iterdir():
                if item.is_file():
                    item.unlink()
        run._write_journal()
        _register_active(run)
        return run

    @classmethod
    def resume(cls, path: Union[str, Path], graph_digest: str
               ) -> "FrontierRunDir":
        """Reopen a crashed run: validate the journal, prune orphans."""
        path = Path(path)
        journal_path = path / JOURNAL_NAME
        if not journal_path.exists():
            raise SpillError(f"no frontier journal at {journal_path}")
        try:
            data = json.loads(journal_path.read_text())
        except ValueError as exc:
            raise SpillError(
                f"corrupt frontier journal at {journal_path}: {exc}"
            ) from exc
        if data.get("format") != JOURNAL_FORMAT:
            raise SpillError(
                f"unsupported journal format {data.get('format')!r}"
            )
        if data.get("graph_digest") != graph_digest:
            raise SpillError(
                f"journal at {journal_path} is for another graph "
                f"({data.get('graph_digest')!r} != {graph_digest!r})"
            )
        run = cls(path, graph_digest, data.get("meta") or {})
        run.layers = list(data.get("layers") or [])
        run.complete = bool(data.get("complete"))
        for entry in run.layers:
            for name in entry["segments"]:
                if not (path / name).exists():
                    raise SpillError(
                        f"journaled segment {name} missing from {path}"
                    )
        run.prune_orphans()
        _register_active(run)
        return run

    # -- journal --------------------------------------------------------

    def _write_journal(self) -> None:
        blob = json.dumps({
            "format": JOURNAL_FORMAT,
            "graph_digest": self.graph_digest,
            "meta": self.meta,
            "layers": self.layers,
            "complete": self.complete,
        }, indent=1)
        tmp = self.path / f".{JOURNAL_NAME}.tmp{os.getpid()}"
        tmp.write_text(blob)
        os.replace(tmp, self.path / JOURNAL_NAME)

    def journaled_files(self) -> set:
        names = {JOURNAL_NAME}
        for entry in self.layers:
            names.update(entry["segments"])
        return names

    # -- segments -------------------------------------------------------

    def segment_name(self, depth: int, index: int) -> str:
        return f"layer_{depth:04d}_{index:04d}.npy"

    def write_segment(self, depth: int, index: int,
                      states: np.ndarray) -> str:
        """Write one states segment; returns its file name.  Not
        journaled yet — :meth:`commit_layer` publishes it."""
        name = self.segment_name(depth, index)
        np.save(self.path / name, states)
        return name

    def commit_layer(self, depth: int, size: int,
                     segments: List[str]) -> None:
        """Publish a completed layer: segments become journaled (and so
        survive the orphan prune / become the resume point)."""
        if depth != len(self.layers):
            raise SpillError(
                f"layer {depth} committed out of order "
                f"(journal has {len(self.layers)})"
            )
        self.layers.append({
            "depth": depth,
            "size": int(size),
            "segments": list(segments),
        })
        self._write_journal()

    def load_layer(self, depth: int) -> List[np.ndarray]:
        """The committed segments of layer ``depth``, in write order."""
        return [
            np.load(self.path / name)
            for name in self.layers[depth]["segments"]
        ]

    # -- hygiene --------------------------------------------------------

    def prune_orphans(self) -> List[str]:
        """Remove files in the run dir the journal does not claim —
        the half-written layer of a crashed (or killed) run."""
        keep = self.journaled_files()
        removed = []
        if not self.path.is_dir():
            return removed
        for item in self.path.iterdir():
            if item.is_file() and item.name not in keep:
                try:
                    item.unlink()
                    removed.append(item.name)
                except OSError:  # pragma: no cover - races on teardown
                    pass
        return removed

    def finish(self, cleanup: bool = True) -> None:
        """Mark the run complete; remove the run dir unless asked to
        keep it (kept dirs journal ``complete: true`` so a later
        ``resume`` knows there is nothing left to do)."""
        self.complete = True
        _unregister_active(self)
        if cleanup:
            shutil.rmtree(self.path, ignore_errors=True)
        else:
            self._write_journal()

    def abandon(self) -> None:
        """Stop tracking without deleting journaled layers (crash path
        for recoverable errors: the dir stays resumable)."""
        self.prune_orphans()
        _unregister_active(self)

    def __repr__(self) -> str:
        return (
            f"<FrontierRunDir {self.path} layers={len(self.layers)}"
            f"{' complete' if self.complete else ''}>"
        )
