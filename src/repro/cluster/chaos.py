"""Seeded chaos schedules: kill and restart live replicas under load.

The system-level analogue of :class:`repro.faults.FaultInjector`: a
:class:`ChaosSchedule` is a sorted list of :class:`ChaosEvent` records
— kill or restart a named replica at a given offset from run start —
generated from a seed (or built explicitly) and JSON round-trippable,
so a chaos run is exactly reproducible.

:class:`ChaosRunner` applies a schedule against a live
:class:`~repro.cluster.manager.ClusterManager` on a background thread
while the load generator runs in the foreground::

    schedule = ChaosSchedule.kill_one(cluster.names(), at=0.1,
                                      repair_after=0.5, seed=7)
    with ChaosRunner(cluster, schedule):
        result = run_loadgen(cluster.host, cluster.port, requests)

Every applied event is logged with its wall-clock offset
(:attr:`ChaosRunner.applied`), which is how the chaos benchmark
measures failover time: kill offset vs. the router's DOWN-detection
timestamp.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs import record_event

ACTIONS = ("kill", "restart")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled lifecycle change: ``action`` a named replica at
    ``at`` seconds from run start."""

    at: float
    action: str
    replica: str

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.at < 0:
            raise ValueError("events cannot fire before the run starts")

    def to_dict(self) -> Dict[str, object]:
        return {"at": self.at, "action": self.action,
                "replica": self.replica}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ChaosEvent":
        return ChaosEvent(
            at=float(data["at"]),
            action=str(data["action"]),
            replica=str(data["replica"]),
        )


class ChaosSchedule:
    """A deterministic, replayable sequence of chaos events."""

    def __init__(self, events: Iterable[ChaosEvent] = ()):
        self.events: List[ChaosEvent] = sorted(
            events, key=lambda e: e.at
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def last_at(self) -> float:
        return self.events[-1].at if self.events else 0.0

    # -- seeded generation ---------------------------------------------

    @classmethod
    def kill_one(
        cls,
        replicas: Sequence[str],
        at: float = 0.1,
        repair_after: Optional[float] = None,
        seed: int = 0,
    ) -> "ChaosSchedule":
        """Kill one seed-chosen replica at ``at``; optionally restart
        it ``repair_after`` seconds later — the canonical chaos probe
        the benchmark drives."""
        victim = random.Random(seed).choice(sorted(replicas))
        events = [ChaosEvent(at, "kill", victim)]
        if repair_after is not None:
            events.append(
                ChaosEvent(at + repair_after, "restart", victim)
            )
        return cls(events)

    @classmethod
    def random(
        cls,
        replicas: Sequence[str],
        kills: int = 2,
        span: float = 1.0,
        repair_after: Optional[float] = 0.3,
        seed: int = 0,
        min_alive: int = 1,
    ) -> "ChaosSchedule":
        """``kills`` seeded kill (+ optional restart) events spread
        uniformly over ``span`` seconds, never scheduling more than
        ``len(replicas) - min_alive`` replicas dead at once."""
        rng = random.Random(seed)
        names = sorted(replicas)
        events: List[ChaosEvent] = []
        dead_until: Dict[str, float] = {}
        for _ in range(kills):
            at = rng.uniform(0.0, span)
            alive = [
                n for n in names
                if dead_until.get(n, -1.0) < at
            ]
            if len(alive) <= min_alive:
                continue
            victim = rng.choice(alive)
            events.append(ChaosEvent(at, "kill", victim))
            if repair_after is not None:
                events.append(
                    ChaosEvent(at + repair_after, "restart", victim)
                )
                dead_until[victim] = at + repair_after
            else:
                dead_until[victim] = float("inf")
        return cls(events)

    # -- serialisation --------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(
        cls, dicts: Iterable[Dict[str, object]]
    ) -> "ChaosSchedule":
        return cls(ChaosEvent.from_dict(d) for d in dicts)

    def __repr__(self) -> str:
        kills = sum(1 for e in self.events if e.action == "kill")
        return (
            f"<ChaosSchedule: {len(self.events)} events "
            f"({kills} kills) over {self.last_at():.2f}s>"
        )


class ChaosRunner:
    """Apply a schedule to a live cluster on a background thread.

    Each event waits out its offset, then calls the matching manager
    verb (``kill`` aborts connections mid-batch, ``restart`` brings
    the replica back and waits for the router to re-mark it UP).
    :attr:`applied` records ``(wall_offset, event)`` pairs as they
    land; events against already-dead (or already-live) replicas are
    skipped and logged with offset ``None``.
    """

    def __init__(self, manager, schedule: ChaosSchedule):
        self.manager = manager
        self.schedule = schedule
        self.applied: List[Dict[str, object]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.started_at: Optional[float] = None

    def start(self) -> "ChaosRunner":
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-chaos", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        for event in self.schedule:
            wait = self.started_at + event.at - time.monotonic()
            if wait > 0 and self._stop.wait(timeout=wait):
                return
            replica = self.manager.replicas.get(event.replica)
            if replica is None:
                continue
            # stamp the offset when the action *starts*: kill() joins
            # the dying server thread, and the router can observe the
            # sever before that join returns — a completion stamp would
            # post-date the detection it is compared against
            offset = time.monotonic() - self.started_at
            if event.action == "kill" and replica.running:
                record_event("chaos.kill", replica=event.replica,
                             offset=offset)
                self.manager.kill(event.replica)
            elif event.action == "restart" and not replica.running:
                record_event("chaos.restart", replica=event.replica,
                             offset=offset)
                self.manager.restart(event.replica)
            else:
                self.applied.append({
                    "offset": None, "event": event.to_dict(),
                    "skipped": True,
                })
                continue
            self.applied.append({
                "offset": offset,
                "event": event.to_dict(),
            })

    def join(self, timeout: float = 30.0) -> None:
        """Wait for every remaining event to land."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        """Abandon unapplied events and wait the thread out."""
        self._stop.set()
        self.join()

    def __enter__(self) -> "ChaosRunner":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.join()
