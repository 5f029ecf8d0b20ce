"""Tests for the fault layer: masked BFS vs the object oracle across
all ten families, the fault injector, and the simulator's fault
policies and delivery accounting."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import PacketSimulator
from repro.core.permutations import Permutation
from repro.emulation import CommModel
from repro.faults import FaultEvent, FaultInjector, FaultMask, FaultPolicy
from repro.faults.mask import endpoints_alive
from repro.networks import make_network
from repro.networks.registry import FAMILIES
from repro.obs import MetricsRegistry, use_registry
from repro.routing import (
    FaultSet,
    RoutingError,
    fault_tolerant_route,
    route_is_fault_free,
    survives_faults,
)
from repro.topologies import StarGraph


@pytest.fixture
def star4():
    return StarGraph(4)


def _random_fault_set(graph, rng, node_rate=0.0, link_rate=0.0,
                      protect=()):
    nodes, links = set(), set()
    protected = set(protect)
    dims = [g.name for g in graph.generators]
    for node in graph.nodes():
        if node_rate and node not in protected \
                and rng.random() < node_rate:
            nodes.add(node)
        for dim in dims:
            if link_rate and rng.random() < link_rate:
                links.add((node, dim))
    return FaultSet.of(nodes=nodes, links=links)


def _route_or_none(graph, source, target, faults, use_compiled):
    try:
        return fault_tolerant_route(
            graph, source, target, faults, use_compiled=use_compiled
        )
    except RoutingError:
        return None


# ----------------------------------------------------------------------
# Differential: masked BFS vs the object-path oracle, all ten families
# ----------------------------------------------------------------------


class TestMaskedVsObjectOracle:
    """The compiled masked BFS must return *exactly* the object path's
    word (same FIFO tie-breaks) — or agree that no route exists — on
    every family, including under disconnecting fault sets."""

    @pytest.mark.parametrize("family", ["IS"] + list(FAMILIES))
    def test_family_differential(self, family):
        net = (make_network("IS", k=4) if family == "IS"
               else make_network(family, l=2, n=2))
        rng = random.Random(sum(map(ord, family)))
        unroutable = 0
        for trial in range(12):
            # Escalating severity; the heaviest tier disconnects.
            link_rate = (0.05, 0.15, 0.45)[trial % 3]
            node_rate = 0.1 if trial % 2 else 0.0
            faults = _random_fault_set(
                net, rng, node_rate=node_rate, link_rate=link_rate
            )
            source = Permutation.random(net.k, rng)
            target = Permutation.random(net.k, rng)
            if faults.blocks_node(source) or faults.blocks_node(target):
                continue
            compiled = _route_or_none(net, source, target, faults, True)
            reference = _route_or_none(net, source, target, faults, False)
            assert compiled == reference, (
                f"{net.name}: masked BFS and object oracle disagree "
                f"({source} -> {target}, {len(faults)} faults)"
            )
            if compiled is None:
                unroutable += 1
            else:
                assert net.apply_word(source, compiled) == target
                assert route_is_fault_free(net, source, compiled, faults)

    @pytest.mark.parametrize("family", ["IS"] + list(FAMILIES))
    def test_family_disconnecting(self, family):
        """Fail every out-link of the source: both paths must agree the
        target is unreachable."""
        net = (make_network("IS", k=4) if family == "IS"
               else make_network(family, l=2, n=2))
        source = net.identity
        target = Permutation.random(net.k, random.Random(1))
        if target == source:
            target = net.neighbor(source, net.generators.names()[0])
        faults = FaultSet.of(
            links=[(source, g.name) for g in net.generators]
        )
        for use_compiled in (True, False):
            with pytest.raises(RoutingError):
                fault_tolerant_route(
                    net, source, target, faults, use_compiled=use_compiled
                )

    @pytest.mark.parametrize("link_rate", [0.1, 0.45])
    @pytest.mark.parametrize("family", ["IS"] + list(FAMILIES))
    def test_reverse_distances_match_object_routes(self, family, link_rate):
        """The masked reverse BFS (the simulator's re-route table) gives
        every live source the object oracle's route length to the
        target, ``-1`` where the oracle finds no route and at every dead
        source; the 0.45 link rate disconnects the graph."""
        net = (make_network("IS", k=4) if family == "IS"
               else make_network(family, l=2, n=2))
        rng = random.Random(sum(map(ord, family)) + int(100 * link_rate))
        target = Permutation.random(net.k, rng)
        faults = _random_fault_set(
            net, rng, node_rate=0.1, link_rate=link_rate, protect=[target]
        )
        dist_to = FaultMask.from_fault_set(net, faults).distances_to(
            net.node_id(target)
        )
        for source in net.nodes():
            got = int(dist_to[net.node_id(source)])
            if faults.blocks_node(source):
                assert got == -1, f"{net.name}: dead {source} has {got}"
                continue
            word = _route_or_none(net, source, target, faults, False)
            expected = -1 if word is None else len(word)
            assert got == expected, (
                f"{net.name}: distance {source} -> {target} is {got}, "
                f"object oracle says {expected} ({len(faults)} faults)"
            )

    def test_survives_faults_parity(self, star4):
        rng = random.Random(7)
        for trial in range(6):
            faults = _random_fault_set(
                star4, rng, node_rate=0.1, link_rate=0.2
            )
            assert survives_faults(
                star4, faults, samples=12, seed=trial, use_compiled=True
            ) == survives_faults(
                star4, faults, samples=12, seed=trial, use_compiled=False
            )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_masked_matches_object_hypothesis(data):
    """Property: for arbitrary fault sets on the 4-star (including ones
    that kill endpoints or disconnect the graph) the two implementations
    are observationally identical."""
    net = StarGraph(4)
    nodes = sorted(net.nodes(), key=lambda p: p.rank())
    dims = net.generators.names()
    faults = FaultSet.of(
        nodes=data.draw(st.sets(st.sampled_from(nodes), max_size=8)),
        links=data.draw(st.sets(
            st.tuples(st.sampled_from(nodes), st.sampled_from(dims)),
            max_size=16,
        )),
    )
    source = data.draw(st.sampled_from(nodes))
    target = data.draw(st.sampled_from(nodes))
    outcomes = []
    for use_compiled in (True, False):
        try:
            outcomes.append(fault_tolerant_route(
                net, source, target, faults, use_compiled=use_compiled
            ))
        except RoutingError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    if outcomes[0]:
        assert net.apply_word(source, outcomes[0]) == target
        assert route_is_fault_free(net, source, outcomes[0], faults)


# ----------------------------------------------------------------------
# FaultMask mechanics
# ----------------------------------------------------------------------


class TestFaultMask:
    def test_fail_repair_round_trip(self, star4):
        mask = FaultMask(star4)
        assert len(mask) == 0
        mask.fail_node(3)
        mask.fail_link(0, "T2")
        assert mask.blocks_node(3) and mask.blocks_link(0, "T2")
        assert (mask.num_failed_nodes(), mask.num_failed_links()) == (1, 1)
        mask.repair_node(3)
        mask.repair_link(0, "T2")
        assert len(mask) == 0

    def test_fault_set_round_trip(self, star4):
        faults = FaultSet.of(
            nodes=[Permutation([2, 1, 3, 4])],
            links=[(star4.identity, "T3")],
        )
        mask = FaultMask.from_fault_set(star4, faults)
        assert mask.to_fault_set() == faults

    def test_reverse_table_routes_match_bfs_distance(self, star4):
        """Greedy descent on the reverse-BFS table reaches the target in
        exactly the masked-BFS distance, for every live source."""
        rng = random.Random(5)
        mask = FaultMask.random(
            star4, node_rate=0.1, link_rate=0.1, seed=2
        )
        target_id = star4.node_id(Permutation.random(4, rng))
        if mask.blocks_node(target_id):
            mask.repair_node(target_id)
        dist_to = mask.distances_to(target_id)
        for source_id in range(star4.num_nodes):
            if mask.blocks_node(source_id):
                continue
            word = mask.route_ids_via_table(source_id, target_id, dist_to)
            if dist_to[source_id] < 0:
                assert word is None
                assert not mask.reachable_from(source_id)[target_id]
            else:
                assert word is not None
                assert len(word) == dist_to[source_id]

    @pytest.mark.parametrize("family", ["IS"] + list(FAMILIES))
    def test_source_tables_descend_like_full_tables(self, family):
        """A two-ended table (``distances_to(target, source)``) is exact
        wherever it labels, and the descent on it from its source is
        the complete table's word, ``None`` exactly when no live route
        exists; a dead source reads -1 and leaves only the target
        labelled.  Every source, live or dead, under masks up to link
        rate 0.45 (which disconnects the graph)."""
        net = (make_network("IS", k=5) if family == "IS"
               else make_network(family, l=2, n=2))
        rates = ((0.0, 0.05), (0.1, 0.15), (0.1, 0.45))
        for (node_rate, link_rate), seed in itertools.product(
            rates, range(3)
        ):
            mask = FaultMask.random(
                net, node_rate=node_rate, link_rate=link_rate, seed=seed
            )
            live = np.flatnonzero(mask.node_ok)
            targets = np.random.default_rng(seed).choice(live, 2, False)
            for target in map(int, targets):
                full = mask.distances_to(target)
                for source in range(net.num_nodes):
                    table = mask.distances_to(target, source)
                    labelled = table >= 0
                    assert (table[labelled] == full[labelled]).all(), (
                        net.name, node_rate, link_rate, seed, source,
                        target,
                    )
                    word = mask.route_ids_via_table(source, target, table)
                    assert word == mask.route_ids_via_table(
                        source, target, full
                    )
                    routable = mask.node_ok[source] and full[source] >= 0
                    assert (word is None) == (not routable)
                    if not mask.node_ok[source]:
                        assert np.flatnonzero(labelled).tolist() == [
                            target
                        ]

    def test_largest_live_component(self, star4):
        mask = FaultMask(star4)
        assert mask.largest_live_component() == star4.num_nodes
        mask.fail_node(0)
        assert mask.largest_live_component() == star4.num_nodes - 1

    def test_endpoints_alive(self, star4):
        mask = FaultMask(star4)
        mask.fail_node(2)
        alive = endpoints_alive(mask, [(0, 1), (0, 2), (2, 3)])
        assert list(alive) == [True, False, False]


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_events_sorted_and_queryable(self, star4):
        u = star4.identity
        injector = FaultInjector([
            FaultEvent(5, "fail", u),
            FaultEvent(1, "fail", u, dimension="T2"),
            FaultEvent(5, "repair", u, dimension="T2"),
        ])
        assert [e.round for e in injector.events] == [1, 5, 5]
        assert len(injector.events_at(5)) == 2
        assert injector.events_at(3) == []
        assert injector.last_round() == 5

    def test_event_validation(self, star4):
        with pytest.raises(ValueError):
            FaultEvent(1, "explode", star4.identity)
        with pytest.raises(ValueError):
            FaultEvent(-1, "fail", star4.identity)

    def test_random_respects_protect(self, star4):
        protected = list(star4.nodes())[:6]
        injector = FaultInjector.random(
            star4, node_rate=1.0, seed=0, protect=protected
        )
        failed = {e.node for e in injector.events if not e.is_link}
        assert not failed & set(protected)
        assert len(failed) == star4.num_nodes - len(protected)

    def test_random_rejects_large_graphs(self):
        net = make_network("MS", l=5, n=2)  # k = 11 > MAX_COMPILE_K
        with pytest.raises(ValueError):
            FaultInjector.random(net, link_rate=0.1)

    def test_single_link_outage_validation(self, star4):
        with pytest.raises(ValueError):
            FaultInjector.single_link_outage(
                star4.identity, "T2", fail_round=3, repair_round=3
            )

    def test_dict_round_trip(self, star4):
        injector = FaultInjector.single_link_outage(
            star4.identity, "T2", fail_round=1, repair_round=4
        )
        rebuilt = FaultInjector.from_dicts(injector.to_dicts())
        assert rebuilt.to_dicts() == injector.to_dicts()
        assert rebuilt.failed_totals() == (0, 0)  # fail + repair cancel

    def test_columns_match_events(self, star4):
        u, v = star4.identity, Permutation([2, 1, 3, 4])
        injector = FaultInjector([
            FaultEvent(3, "repair", v, dimension="T3"),
            FaultEvent(0, "fail", u),
            FaultEvent(3, "fail", u, dimension="T2"),
            FaultEvent(3, "repair", u),
        ])
        assert injector.rounds.tolist() == [0, 3, 3, 3]
        assert injector.dim_names == ("T3", "T2")
        fail, symbols, dims = injector.columns_at(3)
        assert fail.tolist() == [False, True, False]
        assert symbols.tolist() == [[2, 1, 3, 4], [1, 2, 3, 4],
                                    [1, 2, 3, 4]]
        assert dims.tolist() == [0, 1, -1]
        assert len(injector.columns_at(2)[0]) == 0
        assert injector.events_at(3) == injector.events[1:]
        assert injector.failed_totals() == (0, 0)
        assert len(injector) == 4 and injector.last_round() == 3

    @pytest.mark.parametrize("kind", ["link", "node", "both"])
    @pytest.mark.parametrize("family,l,n", [
        ("MS", 2, 2), ("MR", 3, 2), ("RS", 2, 2),
    ])
    def test_random_matches_per_draw_loop(self, family, l, n, kind):
        """The bulk sampler gives the schedule of one ``random()`` call
        per draw, node by node."""
        net = make_network(family, l=l, n=n)
        rng = random.Random(17)
        endpoints = [Permutation.random(net.k, rng) for _ in range(30)]
        for rate in (0.0, 0.1, 1.0):
            node_rate = rate if kind in ("node", "both") else 0.0
            link_rate = rate if kind in ("link", "both") else 0.0
            for protect in ((), endpoints):
                expected = _per_draw_schedule(
                    net, node_rate, link_rate, seed=5, at_round=2,
                    protect=protect,
                )
                injector = FaultInjector.random(
                    net, node_rate=node_rate, link_rate=link_rate,
                    seed=5, at_round=2, protect=protect,
                )
                assert injector.to_dicts() == expected, (
                    f"{net.name} {kind} rate {rate} "
                    f"protect={bool(protect)}"
                )

    def test_random_across_draw_blocks(self, monkeypatch):
        """Blocks of a few nodes each continue one draw stream."""
        from repro.faults import injector as injector_module

        net = make_network("MS", l=2, n=2)
        protect = [Permutation.random(net.k, random.Random(i))
                   for i in range(20)]
        monkeypatch.setattr(injector_module, "_DRAW_BLOCK", 10)
        injector = FaultInjector.random(
            net, node_rate=0.3, link_rate=0.2, seed=3, protect=protect
        )
        assert injector.to_dicts() == _per_draw_schedule(
            net, 0.3, 0.2, seed=3, at_round=1, protect=protect
        )


def _per_draw_schedule(graph, node_rate, link_rate, seed, at_round,
                       protect):
    """The reference sampler: visit the nodes in rank order, one
    ``random()`` call per unprotected node, then one per link."""
    rng = random.Random(seed)
    protected = set(protect)
    dims = [g.name for g in graph.generators]
    events = []
    for node in graph.nodes():
        if node_rate > 0 and node not in protected \
                and rng.random() < node_rate:
            events.append(FaultEvent(at_round, "fail", node))
        for dim in dims:
            if link_rate > 0 and rng.random() < link_rate:
                events.append(
                    FaultEvent(at_round, "fail", node, dimension=dim)
                )
    return [event.to_dict() for event in events]


# ----------------------------------------------------------------------
# Simulator fault policies and accounting
# ----------------------------------------------------------------------


def _uniform_traffic(net, packets, seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(packets):
        u = Permutation.random(net.k, rng)
        v = Permutation.random(net.k, rng)
        pairs.append((u, [d for d, _n in net.shortest_path(u, v)]))
    return pairs


def _explicit_schedule(net, seed):
    """Random fail/repair events over a small node pool (so elements
    repeat within a round), plus a fail and a repair of one element in
    each order within rounds 0-2: the last event of a round wins."""
    rng = random.Random(seed)
    dims = net.generators.names()
    pool = [Permutation.random(net.k, rng) for _ in range(8)]
    events = [
        FaultEvent(
            rng.randint(0, 5), rng.choice(["fail", "repair"]),
            rng.choice(pool), rng.choice([None, None] + dims),
        )
        for _ in range(30)
    ]
    a, b = pool[0], pool[1]
    return events + [
        FaultEvent(0, "fail", a, dims[0]),
        FaultEvent(0, "repair", a, dims[0]),
        FaultEvent(1, "repair", b),
        FaultEvent(1, "fail", b),
        FaultEvent(2, "fail", a),
        FaultEvent(2, "repair", a),
    ]


def _assert_paths_agree(net, injector, traffic, policy):
    """One run on the compiled path and one on the object path agree on
    rounds, counts, link traffic, every packet's fate and the number of
    events applied (all of those that fire within the run)."""
    results = []
    for use_ids in (True, False):
        registry = MetricsRegistry()
        sim = PacketSimulator(
            net, CommModel.ALL_PORT, use_ids=use_ids,
            injector=injector, fault_policy=policy,
        )
        for u, word in traffic:
            sim.submit(u, word)
        with use_registry(registry):
            result = sim.run(max_rounds=500)
        results.append((
            result.rounds, result.delivered, result.dropped,
            result.rerouted, result.retries, result.link_traffic,
            [p.delivered_round for p in sim.packets],
            [p.dropped_round for p in sim.packets],
            registry.counter("faults.events").total(),
        ))
    assert results[0] == results[1], net.name
    fired = sum(1 for e in injector.events if e.round <= results[0][0])
    assert results[0][-1] == fired


class TestSimulatorFaults:
    def test_drop_policy_loses_blocked_packets(self, star4):
        u = star4.identity
        injector = FaultInjector.single_link_outage(u, "T2", fail_round=1)
        sim = PacketSimulator(
            star4, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.DROP,
        )
        sim.submit(u, ["T2"])
        result = sim.run()
        assert result.delivered == 0 and result.dropped == 1
        packet = sim.packets[0]
        assert packet.dropped and packet.dropped_round is not None
        assert result.submitted() == 1

    def test_reroute_delivers_all_live_endpoint_packets(self):
        """Acceptance criterion: with node faults that keep the live
        graph connected, the re-route policy delivers 100% of packets
        whose endpoints stay live."""
        net = make_network("MS", l=2, n=2)
        traffic = _uniform_traffic(net, 40, seed=4)
        endpoints = [u for u, _ in traffic] + [
            net.apply_word(u, word) for u, word in traffic
        ]
        injector = FaultInjector.random(
            net, node_rate=0.08, seed=9, at_round=1, protect=endpoints
        )
        # Precondition: the failures must not disconnect the live part,
        # otherwise "endpoints alive" would not imply deliverable.
        mask = FaultMask(net)
        for event in injector.events:
            mask.fail_node(net.node_id(event.node))
        live = net.num_nodes - mask.num_failed_nodes()
        assert mask.largest_live_component() == live
        sim = PacketSimulator(
            net, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.REROUTE, record_rounds=True,
        )
        for u, word in traffic:
            sim.submit(u, word)
        result = sim.run()
        assert result.delivered == len(traffic)
        assert result.dropped == 0
        assert result.delivery_ratio() == 1.0

    def test_round_traces_reconcile_with_totals(self):
        net = make_network("RS", l=2, n=2)
        injector = FaultInjector.random(net, link_rate=0.15, seed=3)
        sim = PacketSimulator(
            net, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.REROUTE, record_rounds=True,
        )
        for u, word in _uniform_traffic(net, 30, seed=6):
            sim.submit(u, word)
        result = sim.run()
        traces = result.round_traces
        assert sum(t.delivered for t in traces) == result.delivered
        assert sum(t.dropped for t in traces) == result.dropped
        assert sum(t.rerouted for t in traces) == result.rerouted
        assert result.delivered + result.dropped == result.submitted()
        assert result.submitted() == 30

    @pytest.mark.parametrize("policy", ["drop", "reroute", "retry"])
    def test_compiled_and_object_paths_agree(self, policy):
        """The compiled path's bulk mask writes replay the object path's
        run move for move, under random link faults and under seeded
        explicit schedules that mix node and link events from round 0
        on and fail and repair one element within a round; both paths
        count every event that fires."""
        net = make_network("MS", l=2, n=2)
        _assert_paths_agree(
            net, FaultInjector.random(net, link_rate=0.12, seed=5),
            _uniform_traffic(net, 25, seed=8), policy,
        )
        for family in ("MS", "MR"):
            net = make_network(family, l=2, n=2)
            for seed in range(4):
                _assert_paths_agree(
                    net, FaultInjector(_explicit_schedule(net, seed)),
                    _uniform_traffic(net, 25, seed=seed + 10), policy,
                )

    def test_retry_waits_out_a_repaired_link(self, star4):
        u = star4.identity
        injector = FaultInjector.single_link_outage(
            u, "T2", fail_round=1, repair_round=4
        )
        sim = PacketSimulator(
            star4, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.RETRY, max_retries=5,
        )
        sim.submit(u, ["T2"])
        result = sim.run()
        assert result.delivered == 1 and result.dropped == 0
        assert result.retries > 0
        assert sim.packets[0].delivered_round == 4

    def test_retry_exhaustion_falls_back(self, star4):
        u = star4.identity
        # Permanent outage of every link out of u: retry must exhaust,
        # re-route must fail, the packet must be dropped (not hang).
        injector = FaultInjector([
            FaultEvent(1, "fail", u, dimension=d)
            for d in star4.generators.names()
        ])
        sim = PacketSimulator(
            star4, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.RETRY, max_retries=2,
        )
        sim.submit(u, ["T2"])
        result = sim.run()
        assert result.delivered == 0 and result.dropped == 1
        assert result.retries == 2

    def test_fault_metrics_emitted(self, star4):
        registry = MetricsRegistry()
        injector = FaultInjector.single_link_outage(
            star4.identity, "T2", fail_round=1
        )
        with use_registry(registry):
            sim = PacketSimulator(
                star4, CommModel.ALL_PORT, injector=injector,
                fault_policy=FaultPolicy.DROP,
            )
            sim.submit(star4.identity, ["T2"])
            sim.run()
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert "sim.dropped" in counters
        assert "sim.rerouted" in counters
        assert "faults.links_failed" in gauges
        assert "faults.delivery_ratio" in gauges

    def test_result_dict_round_trip_with_fault_fields(self, star4):
        from repro.comm.simulator import SimulationResult

        injector = FaultInjector.single_link_outage(
            star4.identity, "T2", fail_round=1
        )
        sim = PacketSimulator(
            star4, CommModel.ALL_PORT, injector=injector,
            fault_policy=FaultPolicy.DROP, record_rounds=True,
        )
        sim.submit(star4.identity, ["T2"])
        result = sim.run()
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result


# ----------------------------------------------------------------------
# CI smoke
# ----------------------------------------------------------------------


def test_fault_injection_smoke():
    """Fast end-to-end smoke (run standalone by the CI workflow): one
    fault-rate sweep point with non-zero failures must terminate with
    reconciled delivery accounting."""
    from repro.experiments import fault_sweep

    (row,) = fault_sweep(
        family="MS", l=2, n=2, rates=(0.1,), packets=25, seed=0
    )
    assert row.reconciles
    assert row.rounds > 0
    assert 0.0 <= row.delivery_ratio <= 1.0


# ----------------------------------------------------------------------
# fault_sweep
# ----------------------------------------------------------------------


def test_fault_sweep_rejects_unknown_kind(monkeypatch):
    """A misspelt ``fault_kind`` is an error, raised before the network
    is built — not a silently fault-free sweep."""
    import repro.networks
    from repro.experiments import fault_sweep

    def no_network(*args, **kwargs):
        raise AssertionError("network built before the kind was checked")

    monkeypatch.setattr(repro.networks, "make_network", no_network)
    with pytest.raises(ValueError, match="'link', 'node' or 'both'"):
        list(fault_sweep("MS", l=2, n=2, rates=(0.1,), fault_kind="nodes"))


#: ``fault_sweep("MR", l=3, n=2, rates=(0.0, 0.05, 0.1), packets=60,
#: seed=1)`` rows as (delivered, dropped, rerouted, retries, rounds,
#: mean_latency), recorded before the sweep shared one network, one
#: traffic set and a columnar schedule across its rates.
GOLDEN_MR32_ROWS = {
    ("both", "drop"): [
        (60, 0, 0, 0, 11, 7.7),
        (32, 28, 0, 0, 10, 7.375),
        (14, 46, 0, 0, 10, 6.928571428571429),
    ],
    ("both", "reroute"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 28, 0, 17, 9.033333333333333),
        (60, 0, 46, 0, 17, 10.233333333333333),
    ],
    ("both", "retry"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 28, 84, 20, 10.416666666666666),
        (60, 0, 46, 138, 20, 12.583333333333334),
    ],
    ("link", "drop"): [
        (60, 0, 0, 0, 11, 7.7),
        (36, 24, 0, 0, 10, 7.305555555555555),
        (25, 35, 0, 0, 10, 7.2),
    ],
    ("link", "reroute"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 24, 0, 14, 8.583333333333334),
        (60, 0, 35, 0, 14, 9.3),
    ],
    ("link", "retry"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 24, 72, 17, 9.783333333333333),
        (60, 0, 35, 105, 17, 11.05),
    ],
    ("node", "drop"): [
        (60, 0, 0, 0, 11, 7.7),
        (35, 25, 0, 0, 11, 7.6571428571428575),
        (21, 39, 0, 0, 10, 7.380952380952381),
    ],
    ("node", "reroute"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 25, 0, 15, 8.683333333333334),
        (60, 0, 39, 0, 15, 9.433333333333334),
    ],
    ("node", "retry"): [
        (60, 0, 0, 0, 11, 7.7),
        (60, 0, 25, 75, 18, 9.983333333333333),
        (60, 0, 39, 117, 20, 11.433333333333334),
    ],
}


@pytest.mark.parametrize("kind,policy", sorted(GOLDEN_MR32_ROWS))
def test_fault_sweep_golden_rows(kind, policy):
    from repro.experiments import fault_sweep

    rows = list(fault_sweep(
        "MR", l=3, n=2, rates=(0.0, 0.05, 0.1), packets=60, seed=1,
        fault_kind=kind, policy=policy,
    ))
    assert [
        (r.delivered, r.dropped, r.rerouted, r.retries, r.rounds,
         r.mean_latency)
        for r in rows
    ] == GOLDEN_MR32_ROWS[kind, policy]
    for rate, row in zip((0.0, 0.05, 0.1), rows):
        assert (row.network, row.policy, row.packets) == (
            "MR(3,2)", policy, 60
        )
        assert row.node_rate == (rate if kind != "link" else 0.0)
        assert row.link_rate == (rate if kind != "node" else 0.0)


#: ``fault_sweep("MS", l=7, n=1, rates=(0.0, 0.02, 0.05, 0.1),
#: fault_kind="both", packets=100, policy="reroute", seed=1)`` rows as
#: (delivered, dropped, rerouted, retries, rounds, mean_latency): the
#: sweep the ``fault_sweep`` benchmark workload runs.
GOLDEN_MS71_ROWS = [
    (100, 0, 0, 0, 9, 7.09),
    (100, 0, 29, 0, 12, 7.57),
    (100, 0, 53, 0, 12, 7.95),
    (100, 0, 78, 0, 13, 8.55),
]


def test_fault_sweep_golden_rows_benchmark_instance():
    from repro.experiments import fault_sweep

    rows = list(fault_sweep(
        "MS", l=7, n=1, rates=(0.0, 0.02, 0.05, 0.1), fault_kind="both",
        packets=100, policy="reroute", seed=1,
    ))
    assert [
        (r.delivered, r.dropped, r.rerouted, r.retries, r.rounds,
         r.mean_latency)
        for r in rows
    ] == GOLDEN_MS71_ROWS
    assert {(r.network, r.policy, r.packets) for r in rows} == {
        ("MS(7,1)", "reroute", 100)
    }
