"""Tests for the fault layer: masked BFS vs the object oracle across
all ten families, the fault injector, and the simulator's fault
policies and delivery accounting."""

import random

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

    def test_epoch_bumps_on_every_mutation(self, star4):
        mask = FaultMask(star4)
        before = mask.epoch
        mask.fail_node(1)
        mask.fail_link(0, "T2")
        mask.repair_node(1)
        assert mask.epoch == before + 3

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
                assert mask.bfs(source_id, target_id).word_ids_to(
                    target_id
                ) is None
            else:
                assert word is not None
                assert len(word) == dist_to[source_id]

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
        net = make_network("MS", l=2, n=2)
        traffic = _uniform_traffic(net, 25, seed=8)
        results = []
        for use_ids in (True, False):
            injector = FaultInjector.random(net, link_rate=0.12, seed=5)
            sim = PacketSimulator(
                net, CommModel.ALL_PORT, use_ids=use_ids,
                injector=injector, fault_policy=policy,
            )
            for u, word in traffic:
                sim.submit(u, word)
            result = sim.run()
            results.append((
                result.rounds, result.delivered, result.dropped,
                result.rerouted, result.retries,
                [p.delivered_round for p in sim.packets],
                [p.dropped_round for p in sim.packets],
            ))
        assert results[0] == results[1]

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
