"""Synchronous packet-level network simulator.

Substitution S5 in DESIGN.md: the paper's completion-time claims are all
stated in synchronous rounds with unit-capacity links, so a round-based
software simulator reproduces them exactly.  Packets are source-routed
(a precomputed list of dimension names); each directed link carries at
most one packet per round, queued FIFO, and the three communication
models constrain which links may fire in a round:

* **all-port** — every nonempty link queue sends its head packet;
* **SDC** — only links of the round's single active dimension send (the
  dimension sequence is a policy: round-robin by default, or supplied);
* **single-port** — each node sends on at most one link (round-robin over
  its queues) and receives at most one packet per round.

Fault injection (``repro.faults``): pass a
:class:`~repro.faults.FaultInjector` and the simulator applies its
scheduled link/node failures (and repairs) at the start of each round.
Packets whose next hop is faulty follow the configured
:class:`~repro.faults.FaultPolicy` — ``drop``, ``reroute`` via the
fault-aware table, or bounded ``retry`` with backoff — and the result
carries degraded-delivery accounting (``delivered`` / ``dropped`` /
``rerouted`` / ``retries``) that reconciles exactly with the per-round
traces.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.cayley import CayleyGraph
from ..core.compiled import rank_array
from ..core.permutations import Permutation
from ..emulation.models import CommModel
from ..faults.injector import FaultInjector, FaultPolicy
from ..obs import get_registry, get_tracer


@dataclass
class Packet:
    """A source-routed packet.

    ``path`` lists the dimension names still to traverse; ``at`` is the
    packet's current node and ``target`` its final destination (fixed at
    submit time, so re-routing can rebuild ``path`` mid-flight).
    ``delivered_round`` / ``dropped_round`` are filled on arrival/loss.
    ``at_id`` is the compiled backend's integer node ID for ``at`` —
    internal bookkeeping (``None`` when the simulator runs on the object
    path); ``at`` itself is always a valid :class:`Permutation`.
    """

    source: Permutation
    at: Permutation
    path: List[str]
    hop: int = 0
    delivered_round: Optional[int] = None
    at_id: Optional[int] = None
    target: Optional[Permutation] = None
    target_id: Optional[int] = None
    dropped_round: Optional[int] = None
    retries: int = 0
    reroutes: int = 0
    retry_at: int = 0

    @property
    def delivered(self) -> bool:
        return self.dropped_round is None and self.hop >= len(self.path)

    @property
    def dropped(self) -> bool:
        return self.dropped_round is not None


@dataclass(frozen=True)
class RoundTrace:
    """Per-round observability record (``PacketSimulator(...,
    record_rounds=True)``).

    ``round`` 0 captures the state right after injection (its
    ``delivered`` counts zero-length routes; its ``dropped`` counts
    packets lost to round-0 fault events).  Invariants the tests
    assert: summing ``sent`` / ``delivered`` / ``dropped`` /
    ``rerouted`` over all traces reproduces the
    :class:`SimulationResult` totals, and the max of ``max_queue``
    reproduces its global queue high-water mark.
    """

    round: int
    sent: int
    delivered: int
    in_flight: int
    max_queue: int
    per_dimension: Dict[str, int]
    dropped: int = 0
    rerouted: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.round,
            "sent": self.sent,
            "delivered": self.delivered,
            "in_flight": self.in_flight,
            "max_queue": self.max_queue,
            "per_dimension": dict(self.per_dimension),
            "dropped": self.dropped,
            "rerouted": self.rerouted,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RoundTrace":
        return RoundTrace(
            round=data["round"],
            sent=data["sent"],
            delivered=data["delivered"],
            in_flight=data["in_flight"],
            max_queue=data["max_queue"],
            per_dimension=dict(data["per_dimension"]),
            dropped=data.get("dropped", 0),
            rerouted=data.get("rerouted", 0),
        )


@dataclass
class SimulationResult:
    """Outcome of a simulation run.

    ``link_traffic`` maps each *used* directed link ``(node, dim)`` to
    its transmission count — links that never carried a packet are
    absent, so the min/uniformity statistics below describe the loaded
    sub-network only (see :meth:`min_link_traffic`).

    Fault accounting (all zero on fault-free runs): ``dropped`` packets
    never arrive, ``rerouted`` counts route recomputations, ``retries``
    counts failed transmission attempts under the retry policy.
    ``delivered + dropped`` always equals the number of submitted
    packets.
    """

    rounds: int
    delivered: int
    link_traffic: Dict[Tuple[Permutation, str], int]
    max_queue: int
    round_traces: Optional[List[RoundTrace]] = None
    dropped: int = 0
    rerouted: int = 0
    retries: int = 0

    def submitted(self) -> int:
        """Packets that entered the network (delivery accounting's
        right-hand side: ``delivered + dropped``)."""
        return self.delivered + self.dropped

    def delivery_ratio(self) -> float:
        """Fraction of submitted packets that arrived (1.0 when no
        packets were submitted)."""
        total = self.submitted()
        return self.delivered / total if total else 1.0

    def max_link_traffic(self) -> int:
        return max(self.link_traffic.values()) if self.link_traffic else 0

    def min_link_traffic(self) -> int:
        """Minimum traffic over links that carried **at least one**
        packet.  ``link_traffic`` never records idle links, so this is
        *not* the minimum over all ``N * degree`` directed links of the
        graph — an all-to-one workload reports the quietest *used* link,
        while every untouched link implicitly carried 0.  Use
        :meth:`links_used` against ``num_nodes * degree`` to tell the
        two apart."""
        return min(self.link_traffic.values()) if self.link_traffic else 0

    def links_used(self) -> int:
        """How many directed links carried at least one packet."""
        return len(self.link_traffic)

    def total_link_fires(self) -> int:
        """Total transmissions (= packet-hops) across the run."""
        return sum(self.link_traffic.values())

    def dimension_traffic(self) -> Dict[str, int]:
        """Transmissions aggregated per dimension (per-dimension
        utilization of the generator classes)."""
        out: Dict[str, int] = {}
        for (_node, dim), count in self.link_traffic.items():
            out[dim] = out.get(dim, 0) + count
        return out

    def traffic_uniformity(self) -> float:
        """max/min traffic over links that carried anything (Section 1's
        "traffic ... is uniform within a constant factor").  Like
        :meth:`min_link_traffic`, idle links are excluded from the
        ratio."""
        lo = self.min_link_traffic()
        return self.max_link_traffic() / lo if lo else float("inf")

    # -- persistence (repro.io conventions) --------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form; links serialize as ``[symbols, dim, count]``
        triples (see :func:`repro.io.save_simulation_result`)."""
        return {
            "rounds": self.rounds,
            "delivered": self.delivered,
            "max_queue": self.max_queue,
            "dropped": self.dropped,
            "rerouted": self.rerouted,
            "retries": self.retries,
            "link_traffic": [
                [list(node.symbols), dim, count]
                for (node, dim), count in sorted(
                    self.link_traffic.items(),
                    key=lambda kv: (kv[0][0].symbols, kv[0][1]),
                )
            ],
            "round_traces": (
                None if self.round_traces is None
                else [rt.to_dict() for rt in self.round_traces]
            ),
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SimulationResult":
        traces = data.get("round_traces")
        return SimulationResult(
            rounds=data["rounds"],
            delivered=data["delivered"],
            max_queue=data["max_queue"],
            dropped=data.get("dropped", 0),
            rerouted=data.get("rerouted", 0),
            retries=data.get("retries", 0),
            link_traffic={
                (Permutation(symbols), dim): count
                for symbols, dim, count in data["link_traffic"]
            },
            round_traces=(
                None if traces is None
                else [RoundTrace.from_dict(rt) for rt in traces]
            ),
        )


@dataclass
class _FaultState:
    """Live fault bookkeeping inside one simulator run.

    The compiled path keeps the state in a
    :class:`~repro.faults.FaultMask` only, whose two-ended searches
    serve re-routes; the object path keeps ``dead_nodes`` /
    ``dead_links`` sets keyed like its queues (Permutations).
    ``nodes_down`` / ``links_down`` say whether anything is down at all,
    for the per-queue early exits.
    """

    dead_nodes: set = field(default_factory=set)
    dead_links: set = field(default_factory=set)
    nodes_down: bool = False
    links_down: bool = False
    mask: Optional[object] = None                 # FaultMask (compiled path)
    fault_set: Optional[object] = None            # FaultSet cache (object path)


class PacketSimulator:
    """Round-synchronous simulator over a Cayley graph.

    For materialisable graphs the simulator keys its link queues and
    traffic counters on the compiled backend's dense integer node IDs
    and advances packets by move-table lookup instead of Python-level
    permutation multiplication; the public API (``submit``, ``packets``,
    ``SimulationResult.link_traffic``) stays in :class:`Permutation`
    terms.  Pass ``use_ids=False`` to force the object path (the
    reference implementation, and the fallback for large ``k``).

    Fault injection: ``injector`` supplies scheduled fail/repair events,
    ``fault_policy`` picks what blocked packets do (``"drop"``,
    ``"reroute"``, ``"retry"``), and ``max_retries`` / ``retry_backoff``
    bound the retry policy before it falls back to re-routing.
    """

    def __init__(
        self,
        graph: CayleyGraph,
        model: CommModel = CommModel.ALL_PORT,
        sdc_sequence: Optional[Sequence[str]] = None,
        record_rounds: bool = False,
        use_ids: Optional[bool] = None,
        injector: Optional[FaultInjector] = None,
        fault_policy: Union[FaultPolicy, str] = FaultPolicy.REROUTE,
        max_retries: int = 3,
        retry_backoff: int = 1,
    ):
        self.graph = graph
        self.model = model
        self.record_rounds = record_rounds
        self._dims = graph.generators.names()
        self._perms = {g.name: g.perm for g in graph.generators}
        if use_ids is None:
            use_ids = graph.can_compile()
        self._compiled = graph.compiled() if use_ids else None
        self._sdc_sequence = list(sdc_sequence) if sdc_sequence else None
        # Keyed on (node_id, dim) when compiled, (Permutation, dim) otherwise.
        self._queues: Dict[Tuple[object, str], deque] = defaultdict(deque)
        self._packets: List[Packet] = []
        self._round = 0
        self._delivered = 0
        self._traffic: Dict[Tuple[object, str], int] = defaultdict(int)
        self._max_queue = 0
        self._round_traces: List[RoundTrace] = []
        # -- fault layer ------------------------------------------------
        self._injector = injector
        self._policy = FaultPolicy(fault_policy)
        self._max_retries = max_retries
        self._retry_backoff = max(1, retry_backoff)
        self._faults = None if injector is None else _FaultState()
        self._dropped = 0
        self._rerouted = 0
        self._retries = 0

    # -- workload -----------------------------------------------------------

    def submit(self, source: Permutation, path: Sequence[str]) -> None:
        """Inject one packet at ``source`` with the given route.

        Zero-length routes count as immediately delivered.
        """
        packet = Packet(source=source, at=source, path=list(path))
        if self._compiled is not None:
            packet.at_id = self._compiled.node_id(source)
            target_id = packet.at_id
            for dim in packet.path:
                target_id = self._compiled.neighbor_id(target_id, dim)
            packet.target_id = target_id
            packet.target = self._compiled.node(target_id)
        else:
            packet.target = self.graph.apply_word(source, path)
        self._packets.append(packet)
        if packet.delivered:
            packet.delivered_round = 0
            self._delivered += 1
        else:
            self._enqueue(packet)

    def _node_key(self, packet: Packet):
        return packet.at if self._compiled is None else packet.at_id

    def _enqueue(self, packet: Packet) -> None:
        key = (self._node_key(packet), packet.path[packet.hop])
        self._queues[key].append(packet)
        self._max_queue = max(self._max_queue, len(self._queues[key]))

    # -- fault state --------------------------------------------------------

    def _apply_fault_events(self) -> None:
        """Fire this round's scheduled events, then sweep queues at dead
        nodes (their packets are lost with the node).

        The compiled path ranks the round's schedule rows in one pass
        and writes them into its mask in bulk; the object path applies
        the round's :class:`~repro.faults.FaultEvent` records to its sets
        one by one."""
        state = self._faults
        if self._compiled is not None:
            fail, symbols, dims = self._injector.columns_at(self._round)
            count = len(fail)
            if not count:
                return
            mask = self._ensure_mask()
            # dims index dim_names, -1 (the appended entry) for nodes
            gens = np.array([
                self._compiled.gen_index(name)
                for name in self._injector.dim_names
            ] + [-1])
            mask.apply_events(rank_array(symbols), gens[dims], fail)
            state.nodes_down = not mask.node_ok.all()
            state.links_down = not mask.link_ok.all()
        else:
            events = self._injector.events_at(self._round)
            count = len(events)
            if not count:
                return
            for event in events:
                failing = event.action == "fail"
                if event.is_link:
                    link = (event.node, event.dimension)
                    state.dead_links.add(link) if failing \
                        else state.dead_links.discard(link)
                else:
                    state.dead_nodes.add(event.node) if failing \
                        else state.dead_nodes.discard(event.node)
            state.fault_set = None
            state.nodes_down = bool(state.dead_nodes)
            state.links_down = bool(state.dead_links)
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.events").inc(count)
        self._drop_queues_at_dead_nodes()

    def _ensure_mask(self):
        """The compiled-path FaultMask, built lazily (first event)."""
        from ..faults.mask import FaultMask

        if self._faults.mask is None:
            self._faults.mask = FaultMask(self.graph)
        return self._faults.mask

    def _node_dead(self, node) -> bool:
        if self._compiled is None:
            return node in self._faults.dead_nodes
        return not self._faults.mask.node_ok[node]

    def _drop_queues_at_dead_nodes(self) -> None:
        if not self._faults.nodes_down:
            return
        for (node, _dim), queue in self._queues.items():
            if queue and self._node_dead(node):
                while queue:
                    self._drop(queue.popleft())

    def _live_fault_set(self):
        """Object-form FaultSet of the current state (object-path
        re-routes); rebuilt after each event batch."""
        from ..routing.fault_tolerant import FaultSet

        state = self._faults
        if state.fault_set is None:
            state.fault_set = FaultSet.of(
                nodes=state.dead_nodes,
                links=state.dead_links,
            )
        return state.fault_set

    def _link_blocked(self, key: Tuple[object, str]) -> bool:
        """A queue cannot fire: its link is dead, or the link's head
        node is dead (delivering into a dead node loses the packet, so
        the policy gets to act instead)."""
        state = self._faults
        if state is None or not (state.nodes_down or state.links_down):
            return False
        node, dim = key
        compiled = self._compiled
        if compiled is None:
            return key in state.dead_links or state.nodes_down and (
                node * self._perms[dim] in state.dead_nodes
            )
        g = compiled.gen_index(dim)
        mask = state.mask
        return not (mask.link_ok[g, node]
                    and mask.node_ok[compiled.moves[g, node]])

    # -- fault policies -----------------------------------------------------

    def _drop(self, packet: Packet) -> None:
        packet.dropped_round = self._round
        self._dropped += 1

    def _reroute_word(self, packet: Packet) -> Optional[List[str]]:
        """A fault-free route from the packet's current node to its
        target, or ``None`` when none exists: on the compiled path, the
        descent on one two-ended search per re-route."""
        if self._compiled is not None:
            mask = self._ensure_mask()
            table = mask.distances_to(packet.target_id, packet.at_id)
            word_ids = mask.route_ids_via_table(
                packet.at_id, packet.target_id, table
            )
            if word_ids is None:
                return None
            return [self._compiled.gen_names[g] for g in word_ids]
        from ..routing.fault_tolerant import (
            RoutingError,
            fault_tolerant_route,
        )

        try:
            return fault_tolerant_route(
                self.graph, packet.at, packet.target,
                self._live_fault_set(), use_compiled=False,
            )
        except RoutingError:
            return None

    def _reroute_or_drop(self, packet: Packet) -> None:
        word = self._reroute_word(packet)
        if word is None:
            self._drop(packet)
            return
        packet.path = packet.path[:packet.hop] + word
        packet.reroutes += 1
        packet.retries = 0
        packet.retry_at = 0
        self._rerouted += 1
        self._enqueue(packet)

    def _resolve_blocked_queues(self) -> None:
        """Apply the fault policy to queues whose next hop is faulty.

        ``drop`` / ``reroute`` clear the whole blocked queue (every
        packet in it faces the same dead hop); ``retry`` charges only
        the head packet, once per backoff window, and falls back to
        re-routing when its budget is spent.  Runs before transmission
        selection so SDC / single-port ports are not wasted on links
        that cannot fire.
        """
        state = self._faults
        if state is None or not (state.nodes_down or state.links_down):
            return
        for key in list(self._queues.keys()):
            queue = self._queues[key]
            if not queue or not self._link_blocked(key):
                continue
            if self._policy is FaultPolicy.DROP:
                while queue:
                    self._drop(queue.popleft())
            elif self._policy is FaultPolicy.REROUTE:
                while queue:
                    self._reroute_or_drop(queue.popleft())
            else:  # RETRY
                head = queue[0]
                if self._round < head.retry_at:
                    continue
                if head.retries >= self._max_retries:
                    self._reroute_or_drop(queue.popleft())
                else:
                    head.retries += 1
                    head.retry_at = self._round + self._retry_backoff
                    self._retries += 1

    # -- execution -------------------------------------------------------------

    def run(self, max_rounds: int = 10_000_000) -> SimulationResult:
        """Simulate until every packet is delivered or dropped.

        With ``record_rounds`` the result additionally carries one
        :class:`RoundTrace` per round (plus a round-0 injection record).
        """
        with get_tracer().span(
            "sim.run", model=self.model.value, packets=len(self._packets)
        ) as span:
            if self._injector is not None:
                # Round-0 events hit already-submitted packets at their
                # sources before the first simulation step.
                self._apply_fault_events()
                self._resolve_blocked_queues()
            if self.record_rounds:
                self._round_traces.append(RoundTrace(
                    round=0,
                    sent=0,
                    delivered=self._delivered,
                    in_flight=len(self._packets) - self._delivered
                    - self._dropped,
                    max_queue=self._current_max_queue(),
                    per_dimension={},
                    dropped=self._dropped,
                    rerouted=self._rerouted,
                ))
            while self._delivered + self._dropped < len(self._packets):
                if self._round >= max_rounds:
                    raise RuntimeError(
                        f"simulation exceeded {max_rounds} rounds "
                        f"({self._delivered}/{len(self._packets)} delivered)"
                    )
                self._step()
            span.set(rounds=self._round, delivered=self._delivered,
                     dropped=self._dropped)
            result = SimulationResult(
                rounds=self._round,
                delivered=self._delivered,
                link_traffic=self._public_traffic(),
                max_queue=self._max_queue,
                round_traces=(
                    list(self._round_traces) if self.record_rounds
                    else None
                ),
                dropped=self._dropped,
                rerouted=self._rerouted,
                retries=self._retries,
            )
            self._emit_metrics(result)
        return result

    def _public_traffic(self) -> Dict[Tuple[Permutation, str], int]:
        """Internal traffic counters re-keyed to the public
        ``(Permutation, dimension)`` form."""
        if self._compiled is None:
            return dict(self._traffic)
        node = self._compiled.node
        return {
            (node(node_id), dim): count
            for (node_id, dim), count in self._traffic.items()
        }

    def _emit_metrics(self, result: SimulationResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        model = self.model.value
        registry.counter("sim.packets_delivered").inc(
            result.delivered, model=model
        )
        registry.counter("sim.rounds").inc(result.rounds, model=model)
        registry.counter("sim.link_fires").inc(
            result.total_link_fires(), model=model
        )
        registry.gauge("sim.max_queue").set(result.max_queue, model=model)
        for dim, count in result.dimension_traffic().items():
            registry.counter("sim.dimension_traffic").inc(
                count, model=model, dimension=dim
            )
        registry.histogram("sim.queue_depth").observe(
            result.max_queue, model=model
        )
        if self._injector is not None:
            policy = self._policy.value
            registry.counter("sim.dropped").inc(
                result.dropped, model=model, policy=policy
            )
            registry.counter("sim.rerouted").inc(
                result.rerouted, model=model, policy=policy
            )
            registry.counter("sim.retries").inc(
                result.retries, model=model, policy=policy
            )
            nodes, links = self._injector.failed_totals()
            registry.gauge("faults.nodes_failed").set(nodes)
            registry.gauge("faults.links_failed").set(links)
            registry.gauge("faults.delivery_ratio").set(
                result.delivery_ratio(), model=model, policy=policy
            )

    def _current_max_queue(self) -> int:
        return max((len(q) for q in self._queues.values()), default=0)

    def _step(self) -> None:
        self._round += 1
        dropped_before = self._dropped
        rerouted_before = self._rerouted
        if self._injector is not None:
            self._apply_fault_events()
            self._resolve_blocked_queues()
        sending = self._select_transmissions()
        moved: List[Packet] = []
        per_dim: Optional[Dict[str, int]] = (
            {} if self.record_rounds else None
        )
        delivered_before = self._delivered
        compiled = self._compiled
        for key in sending:
            queue = self._queues[key]
            if not queue:
                continue
            packet = queue.popleft()
            node, dim = key
            self._traffic[key] += 1
            if per_dim is not None:
                per_dim[dim] = per_dim.get(dim, 0) + 1
            if compiled is not None:
                packet.at_id = compiled.neighbor_id(node, dim)
                packet.at = compiled.node(packet.at_id)
            else:
                packet.at = node * self._perms[dim]
            packet.hop += 1
            moved.append(packet)
        for packet in moved:
            if packet.delivered:
                packet.delivered_round = self._round
                self._delivered += 1
            else:
                self._enqueue(packet)
        if per_dim is not None:
            self._round_traces.append(RoundTrace(
                round=self._round,
                sent=len(moved),
                delivered=self._delivered - delivered_before,
                in_flight=len(self._packets) - self._delivered
                - self._dropped,
                max_queue=self._current_max_queue(),
                per_dimension=per_dim,
                dropped=self._dropped - dropped_before,
                rerouted=self._rerouted - rerouted_before,
            ))

    def _select_transmissions(self) -> List[Tuple[Permutation, str]]:
        nonempty = [
            k for k, q in self._queues.items()
            if q and not self._link_blocked(k)
        ]
        if self.model is CommModel.ALL_PORT:
            return nonempty
        if self.model is CommModel.SDC:
            dim = self._active_dimension(nonempty)
            return [k for k in nonempty if k[1] == dim]
        if self.model is CommModel.SINGLE_PORT:
            return self._single_port_selection(nonempty)
        raise ValueError(f"unknown model {self.model!r}")

    def _active_dimension(self, nonempty) -> str:
        if self._sdc_sequence:
            return self._sdc_sequence[(self._round - 1) % len(self._sdc_sequence)]
        # Round-robin over dimensions that currently have traffic.
        live = sorted({dim for _node, dim in nonempty})
        return live[(self._round - 1) % len(live)] if live else self._dims[0]

    def _single_port_selection(self, nonempty):
        # One send per node (round-robin by dimension order), one receive
        # per node (first come wins; blocked links wait for a later round).
        compiled = self._compiled
        by_node: Dict[object, List[str]] = defaultdict(list)
        for node, dim in nonempty:
            by_node[node].append(dim)
        chosen = []
        receivers = set()
        for node, dims in by_node.items():
            dims.sort()
            # (round - 1) so round 1 starts at dimension order 0,
            # matching the SDC round-robin's phase.
            dim = dims[(self._round - 1) % len(dims)]
            target = (
                compiled.neighbor_id(node, dim) if compiled is not None
                else node * self._perms[dim]
            )
            if target in receivers:
                continue
            receivers.add(target)
            chosen.append((node, dim))
        return chosen

    @property
    def packets(self) -> List[Packet]:
        return self._packets

    @property
    def current_round(self) -> int:
        return self._round
