"""Deterministic fault schedules for the packet simulator.

A :class:`FaultInjector` is a schedule of fault events — fail or repair
a node or a directed link at a given round — that
:class:`~repro.comm.simulator.PacketSimulator` drains at the start of
each round.  The schedule is held as columns sorted by round (one row
per event), which the compiled simulator applies to its fault mask in
bulk; :class:`FaultEvent` records are built from the columns on first
use.  Schedules are plain data (seeded generation, explicit
construction, JSON round-trip), so a fault run is exactly reproducible.

Repair events exist so the ``retry`` policy is meaningful: a link that
fails at round 3 and heals at round 6 lets a bounded-backoff packet
wait it out instead of re-routing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cayley import CayleyGraph
from ..core.compiled import rank_array, unrank_array
from ..core.permutations import Permutation


class FaultPolicy(Enum):
    """What a packet does when its next hop is faulty.

    * ``DROP`` — the packet is lost (counted, never delivered);
    * ``REROUTE`` — recompute a fault-free route from the packet's
      current node via the fault-aware table; drop only if none exists;
    * ``RETRY`` — wait ``backoff`` rounds and try the same link again,
      up to ``max_retries`` times, then fall back to re-routing.
    """

    DROP = "drop"
    REROUTE = "reroute"
    RETRY = "retry"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled change of the fault state.

    ``action`` is ``"fail"`` or ``"repair"``; ``dimension`` is ``None``
    for node events, the link's dimension name otherwise.  ``round`` is
    the simulator round at whose *start* the event fires (round 1 is
    the first simulation step; round 0 events apply before injection
    completes, i.e. to already-submitted packets at their sources).
    """

    round: int
    action: str
    node: Permutation
    dimension: Optional[str] = None

    def __post_init__(self):
        if self.action not in ("fail", "repair"):
            raise ValueError(f"unknown action {self.action!r}")
        if self.round < 0:
            raise ValueError("events cannot fire before round 0")

    @property
    def is_link(self) -> bool:
        return self.dimension is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.round,
            "action": self.action,
            "node": list(self.node.symbols),
            "dimension": self.dimension,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultEvent":
        return FaultEvent(
            round=data["round"],
            action=data["action"],
            node=Permutation(data["node"]),
            dimension=data.get("dimension"),
        )


#: uniform draws :meth:`FaultInjector.random` takes from the rng per
#: ``getrandbits`` call (8 bytes each, so ~2 MiB of draws at a time).
_DRAW_BLOCK = 1 << 18


def _uniform_draws(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, from one
    ``getrandbits`` call that advances the stream exactly as far.

    CPython's ``random()`` takes two 32-bit Mersenne Twister words
    ``a, b`` and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
    ``getrandbits`` packs the words least significant first, in the
    order they are generated.  Every step below is exact in float64, so
    the draws are bit-identical to ``count`` calls of ``random()``.
    """
    if not count:
        return np.empty(0)
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
        dtype="<u4",
    )
    high = (words[0::2] >> 5).astype(np.float64)
    low = (words[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


class FaultInjector:
    """A deterministic schedule of fault events.

    The schedule is four columns with one row per event, sorted stably
    by round (ties keep construction order, so a schedule is replayed
    byte-for-byte):

    * ``rounds`` — int64, the round the event fires at;
    * ``fail`` — bool, ``True`` for a failure, ``False`` for a repair;
    * ``symbols`` — ``(m, k)`` uint8 node labels (the form
      :func:`~repro.core.compiled.rank_array` takes);
    * ``dims`` — int16 index into :attr:`dim_names` of a link event's
      dimension, ``-1`` for a node event.

    The compiled simulator reads one round's rows with
    :meth:`columns_at`; the object path asks :meth:`events_at`.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        events = sorted(events, key=lambda e: e.round)
        dim_names = tuple(dict.fromkeys(
            e.dimension for e in events if e.is_link
        ))
        code = {name: i for i, name in enumerate(dim_names)}
        k = len(events[0].node.symbols) if events else 0
        self._set_columns(
            rounds=np.array([e.round for e in events], dtype=np.int64),
            fail=np.array([e.action == "fail" for e in events], dtype=bool),
            symbols=np.array(
                [e.node.symbols for e in events], dtype=np.uint8
            ).reshape(len(events), k),
            dims=np.array(
                [code.get(e.dimension, -1) for e in events], dtype=np.int16
            ),
            dim_names=dim_names,
        )
        self._events: Optional[List[FaultEvent]] = events

    @classmethod
    def _from_columns(cls, **columns) -> "FaultInjector":
        """A schedule over already sorted, validated columns."""
        injector = cls.__new__(cls)
        injector._set_columns(**columns)
        injector._events = None
        return injector

    def _set_columns(self, rounds, fail, symbols, dims, dim_names) -> None:
        self.rounds = rounds
        self.fail = fail
        self.symbols = symbols
        self.dims = dims
        self.dim_names: Tuple[str, ...] = dim_names

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def events(self) -> List[FaultEvent]:
        """The schedule as :class:`FaultEvent` records, in row order."""
        if self._events is None:
            self._events = [
                FaultEvent(
                    round=round_number,
                    action="fail" if failing else "repair",
                    node=Permutation(labels),
                    dimension=None if dim < 0 else self.dim_names[dim],
                )
                for round_number, failing, labels, dim in zip(
                    self.rounds.tolist(), self.fail.tolist(),
                    self.symbols.tolist(), self.dims.tolist(),
                )
            ]
        return self._events

    def _rows_at(self, round_number: int) -> slice:
        lo, hi = np.searchsorted(self.rounds, [round_number, round_number + 1])
        return slice(int(lo), int(hi))

    def events_at(self, round_number: int) -> List[FaultEvent]:
        return self.events[self._rows_at(round_number)]

    def columns_at(
        self, round_number: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fail, symbols, dims)`` of the events firing at
        ``round_number``, in schedule order."""
        rows = self._rows_at(round_number)
        return self.fail[rows], self.symbols[rows], self.dims[rows]

    def last_round(self) -> int:
        """The latest round any event fires (``-1`` when empty)."""
        return int(self.rounds[-1]) if len(self) else -1

    # -- seeded generation ---------------------------------------------

    @classmethod
    def random(
        cls,
        graph: CayleyGraph,
        node_rate: float = 0.0,
        link_rate: float = 0.0,
        seed: int = 0,
        at_round: int = 1,
        protect: Sequence[Permutation] = (),
    ) -> "FaultInjector":
        """Fail each node/link independently with the given rates, all
        firing at ``at_round``.  ``protect`` exempts the listed nodes
        (keep traffic endpoints alive so delivery stays well-defined).

        Nodes are visited in rank order; each unprotected node takes one
        ``random()`` draw for itself (when ``node_rate > 0``), then every
        node takes one per link (when ``link_rate > 0``).  The draws come
        from one ``getrandbits`` call per block of nodes, converted as
        ``random()`` converts its words, so the schedule is the one
        those ``random()`` calls would give.

        Sampling covers the whole node set, so the graph must be
        materialisable (``graph.can_compile()``); build explicit event
        lists for larger instances.
        """
        if not graph.can_compile():
            raise ValueError(
                f"{graph.name} is too large for random fault sampling; "
                "construct explicit FaultEvent lists instead"
            )
        rng = random.Random(seed)
        n, k = graph.num_nodes, graph.k
        dim_names = tuple(g.name for g in graph.generators)
        # one row per node: column 0 is its own draw, columns 1.. its links'
        rates = np.array([node_rate] + [link_rate] * len(dim_names))
        node_drawn = np.full(n, node_rate > 0)
        labels = [p.symbols for p in protect if p.k == k]
        if labels and node_rate > 0:
            node_drawn[rank_array(np.array(labels, dtype=np.uint8))] = False
        cells: List[np.ndarray] = []
        block = max(1, _DRAW_BLOCK // rates.size)
        for lo in range(0, n, block):
            drawn = np.empty((min(block, n - lo), rates.size), dtype=bool)
            drawn[:, 0] = node_drawn[lo:lo + block]
            drawn[:, 1:] = link_rate > 0
            draws = np.full(drawn.shape, np.inf)
            # boolean assignment fills the drawn cells row-major: the
            # node-major order of one random() call per draw
            draws[drawn] = _uniform_draws(rng, int(drawn.sum()))
            cells.append(np.flatnonzero(draws < rates) + lo * rates.size)
        node_ranks, columns = np.divmod(np.concatenate(cells), rates.size)
        if node_ranks.size and at_round < 0:
            raise ValueError("events cannot fire before round 0")
        return cls._from_columns(
            rounds=np.full(node_ranks.size, at_round, dtype=np.int64),
            fail=np.ones(node_ranks.size, dtype=bool),
            symbols=unrank_array(k, node_ranks).astype(np.uint8),
            dims=(columns - 1).astype(np.int16),
            dim_names=dim_names,
        )

    @classmethod
    def single_link_outage(
        cls,
        node: Permutation,
        dimension: str,
        fail_round: int = 1,
        repair_round: Optional[int] = None,
    ) -> "FaultInjector":
        """One link goes down (and optionally comes back) — the minimal
        schedule for exercising the ``retry`` policy."""
        events = [FaultEvent(fail_round, "fail", node, dimension=dimension)]
        if repair_round is not None:
            if repair_round <= fail_round:
                raise ValueError("repair must come after the failure")
            events.append(
                FaultEvent(repair_round, "repair", node, dimension=dimension)
            )
        return cls(events)

    # -- bookkeeping ---------------------------------------------------

    def failed_totals(self) -> Tuple[int, int]:
        """Net ``(nodes, links)`` failed over the whole schedule
        (failures minus repairs)."""
        delta = np.where(self.fail, 1, -1)
        links = self.dims >= 0
        return int(delta[~links].sum()), int(delta[links].sum())

    def to_dicts(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(
        cls, dicts: Iterable[Dict[str, object]]
    ) -> "FaultInjector":
        return cls(FaultEvent.from_dict(d) for d in dicts)

    def __repr__(self) -> str:
        nodes, links = self.failed_totals()
        return (
            f"<FaultInjector: {len(self)} events, "
            f"net {nodes} nodes / {links} links failed>"
        )
