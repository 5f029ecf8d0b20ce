"""Tests for the observability layer (repro.obs) and its integrations."""

import json

import pytest

from repro.cli import main
from repro.comm import PacketSimulator
from repro.emulation import CommModel, allport_schedule
from repro.experiments import run_quick_report, theorem4_sweep
from repro.networks import make_network
from repro.obs import (
    MetricsRegistry,
    NoopTracer,
    NullRegistry,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    read_spans_jsonl,
    render_metrics_table,
    render_span_table,
    save_metrics_snapshot,
    load_metrics_snapshot,
    span_summary,
    traced,
    use_registry,
    use_tracer,
    write_spans_jsonl,
)
from repro.routing import rotator_family_route, sc_route
from repro.topologies import StarGraph


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.spans] == ["outer", "inner"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert [s.name for s in tracer.children(root)] == ["a", "b"]

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.spans
        assert span.end is not None
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # stack unwound correctly

    def test_attributes_and_duration(self):
        tracer = Tracer()
        with tracer.span("work", network="MS(2,2)") as sp:
            sp.set(hops=7)
        assert sp.attributes == {"network": "MS(2,2)", "hops": 7}
        assert sp.duration >= 0

    def test_find_and_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
        assert len(tracer.find("b")) == 2
        assert [s.name for s in tracer.roots()] == ["a", "b"]

    def test_noop_tracer_records_nothing(self):
        tracer = NoopTracer()
        with tracer.span("anything", x=1) as sp:
            sp.set(y=2)  # must not raise
        assert tracer.spans == []
        assert not tracer.enabled

    def test_default_tracer_is_noop(self):
        assert isinstance(get_tracer(), NoopTracer)

    def test_use_tracer_restores(self):
        before = get_tracer()
        with use_tracer(Tracer()) as tracer:
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_traced_decorator(self):
        @traced("my.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # noop tracer: function passthrough
        with use_tracer(Tracer()) as tracer:
            assert fn(2) == 3
        assert [s.name for s in tracer.spans] == ["my.fn"]


class TestMetrics:
    def test_counter_labels_aggregate(self):
        registry = MetricsRegistry()
        c = registry.counter("sim.packets_delivered")
        c.inc(5, model="sdc")
        c.inc(3, model="sdc")
        c.inc(2, model="all-port")
        assert c.value(model="sdc") == 8
        assert c.value(model="all-port") == 2
        assert c.total() == 10

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("sim.max_queue")
        g.set(3, model="sdc")
        g.set(7, model="sdc")
        assert g.value(model="sdc") == 7
        assert g.value(model="other") is None

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("routing.hops")
        for v in (2, 4, 6):
            h.observe(v, family="MS")
        assert h.count(family="MS") == 3
        assert h.mean(family="MS") == 4
        (entry,) = h.snapshot()
        assert entry["min"] == 2 and entry["max"] == 6

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_null_registry_is_default_and_inert(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert not registry.enabled
        registry.counter("x").inc(labels="ignored")
        registry.gauge("y").set(1)
        registry.histogram("z").observe(2)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_use_registry_restores(self):
        before = get_registry()
        with use_registry(MetricsRegistry()) as registry:
            assert get_registry() is registry
        assert get_registry() is before

    def test_snapshot_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc(2, k="v")
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(3)
        path = tmp_path / "metrics.json"
        save_metrics_snapshot(registry, path)
        assert load_metrics_snapshot(path) == registry.snapshot()

    def test_render_table(self):
        registry = MetricsRegistry()
        registry.counter("sim.rounds").inc(4, model="sdc")
        table = render_metrics_table(registry)
        assert "sim.rounds{model=sdc}" in table and "4" in table
        assert render_metrics_table(MetricsRegistry()).startswith("metrics:")


def _closed(name, span_id, start, end):
    return Span(name=name, span_id=span_id, parent_id=None,
                start=start, end=end)


class TestSpanSummary:
    def test_counts_totals_and_table(self):
        spans = [
            _closed("work", 1, 0.0, 0.5),
            _closed("idle", 2, 1.0, 1.125),
            _closed("work", 3, 2.0, 2.25),
        ]
        summary = span_summary(spans)
        assert summary["work"] == {
            "calls": 2, "total_s": 0.75, "mean_s": 0.375,
            "min_s": 0.25, "max_s": 0.5,
        }
        assert summary["idle"]["calls"] == 1
        assert summary["idle"]["total_s"] == 0.125
        table = render_span_table(spans).splitlines()
        assert table[0].split() == ["span", "calls", "total", "mean", "max"]
        assert table[2].split() == [
            "work", "2", "0.7500s", "0.3750s", "0.5000s"]
        assert table[3].split() == [
            "idle", "1", "0.1250s", "0.1250s", "0.1250s"]

    def test_sorted_by_total(self):
        spans = [_closed("fast", 1, 0.0, 0.1), _closed("slow", 2, 0.0, 1.0)]
        assert list(span_summary(spans)) == ["slow", "fast"]

    def test_open_spans_skipped(self):
        tracer = Tracer()
        tracer.start_span("open")
        with tracer.span("closed"):
            pass
        assert list(span_summary(tracer.spans)) == ["closed"]

    def test_empty(self):
        assert span_summary([]) == {}
        assert render_span_table([]) == "profile: no spans recorded"


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", network="MS(2,2)"):
            with tracer.span("inner") as sp:
                sp.set(hops=3)
        path = tmp_path / "trace.jsonl"
        assert write_spans_jsonl(tracer.spans, path) == 2
        rows = read_spans_jsonl(path)
        assert [r["name"] for r in rows] == ["outer", "inner"]
        assert rows[1]["parent_id"] == rows[0]["span_id"]
        assert rows[1]["attributes"] == {"hops": 3}
        assert all(r["duration"] >= 0 for r in rows)

    def test_each_line_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "t.jsonl"
        write_spans_jsonl(tracer.spans, path)
        for line in path.read_text().splitlines():
            json.loads(line)


class TestLibraryIntegration:
    def test_routing_emits_spans_and_metrics(self):
        net = make_network("MS", l=2, n=2)
        nodes = list(net.nodes())
        with use_tracer(Tracer()) as tracer, \
                use_registry(MetricsRegistry()) as registry:
            word = sc_route(net, nodes[17], net.identity)
        (span,) = tracer.find("routing.sc_route")
        assert span.attributes["hops"] == len(word)
        assert registry.counter("routing.routes").value(family="MS") == 1
        assert registry.histogram("routing.hops").count(family="MS") == 1
        usage = registry.counter("routing.generator_usage")
        assert usage.total() == len(word)

    def test_schedule_validate_emits(self):
        net = make_network("MS", l=2, n=2)
        with use_tracer(Tracer()) as tracer, \
                use_registry(MetricsRegistry()) as registry:
            sched = allport_schedule(net)
            sched.validate()
        assert tracer.find("emulation.allport_schedule")
        assert tracer.find("schedule.validate")
        assert registry.gauge("schedule.makespan").value(
            network=net.name
        ) == sched.makespan

    def test_simulator_emits_metrics(self):
        star = StarGraph(4)
        with use_registry(MetricsRegistry()) as registry:
            sim = PacketSimulator(star, CommModel.ALL_PORT)
            sim.submit(star.identity, ["T2", "T3"])
            result = sim.run()
        model = CommModel.ALL_PORT.value
        assert registry.counter("sim.packets_delivered").value(
            model=model
        ) == result.delivered
        assert registry.counter("sim.rounds").value(model=model) \
            == result.rounds
        assert registry.counter("sim.link_fires").value(model=model) \
            == result.total_link_fires()

    def test_sweep_rows_traced(self):
        with use_tracer(Tracer()) as tracer:
            rows = list(theorem4_sweep(l_range=(2,), n_range=(2,),
                                       families=("MS",)))
        (span,) = tracer.find("sweep.theorem4")
        assert span.attributes["makespan"] == rows[0].measured
        # the schedule construction nests under the sweep row
        (sched_span,) = tracer.find("emulation.allport_schedule")
        assert sched_span.parent_id == span.span_id

    def test_report_trace_tree(self):
        with use_tracer(Tracer()) as tracer, \
                use_registry(MetricsRegistry()) as registry:
            results = run_quick_report()
        (root,) = tracer.find("report.quick")
        checks = tracer.find("report.check")
        assert len(checks) == len(results)
        assert all(c.parent_id == root.span_id for c in checks)
        counter = registry.counter("report.checks")
        assert counter.value(status="pass") == sum(
            r.passed for r in results
        )

    def test_traced_hot_paths(self):
        from repro.faults import FaultMask

        net = make_network("MS", l=2, n=2)
        rotator = make_network("MR", l=2, n=2)
        star = StarGraph(4)
        source = list(net.nodes())[17]
        with use_tracer(Tracer()) as tracer:
            net.bfs_layers()
            allport_schedule(net)
            sc_route(net, source, net.identity)
            rotator_family_route(rotator, list(rotator.nodes())[17])
            make_network("MS", l=2, n=2).compiled().distances
            sim = PacketSimulator(star, CommModel.ALL_PORT)
            sim.submit(star.identity, ["T2", "T3"])
            sim.run()
            mask = FaultMask(net)
            mask.bfs(0)
            mask.distances_to(0)
        recorded = span_summary(tracer.spans)
        for label in (
            "core.bfs_layers", "emulation.allport_schedule",
            "routing.sc_route", "routing.rotator_family_route",
            "compiled.moves", "compiled.bfs", "sim.run",
            "faults.masked_bfs", "faults.masked_reverse_bfs",
        ):
            assert label in recorded, label


class TestCliObservability:
    def test_properties_metrics_and_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(["properties", "MS", "--l", "2", "--n", "2",
                     "--metrics", "--trace-out", str(trace)])
        captured = capsys.readouterr()
        assert code == 0
        # observability output goes to stderr, keeping stdout pipeable
        assert "net.profile{network=MS(2,2),property=nodes}" in captured.err
        assert "net.profile" not in captured.out
        rows = read_spans_jsonl(trace)
        assert any(r["name"] == "cli.properties" for r in rows)

    def test_trace_out_unwritable_is_clean_error(self, capsys, tmp_path):
        code = main(["properties", "MS", "--l", "2", "--n", "2",
                     "--trace-out", str(tmp_path / "no-dir" / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: cannot write trace" in captured.err

    def test_route_trace_and_trace_out_share_hops(self, capsys, tmp_path):
        trace = tmp_path / "r.jsonl"
        code = main(["route", "MS", "--l", "2", "--n", "2",
                     "--source", "34251", "--trace",
                     "--trace-out", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        rows = read_spans_jsonl(trace)
        hop_rows = [r for r in rows if r["name"] == "cli.route.hop"]
        printed_hops = [l for l in out.splitlines() if "-->" in l]
        assert len(hop_rows) == len(printed_hops) > 0
        for row, line in zip(hop_rows, printed_hops):
            assert row["attributes"]["dim"] in line
            assert row["attributes"]["node"] in line

    def test_route_trace_without_trace_out(self, capsys):
        code = main(["route", "MS", "--l", "2", "--n", "2",
                     "--source", "34251", "--trace"])
        assert code == 0
        assert "-->" in capsys.readouterr().out

    def test_profile_flag(self, capsys):
        code = main(["properties", "MS", "--l", "2", "--n", "2",
                     "--profile"])
        err = capsys.readouterr().err
        assert code == 0
        # statistics are served by the compiled array backend
        assert "compiled.bfs" in err
        assert "compiled.moves" in err
        code = main(["faults", "MS", "--l", "3", "--n", "1",
                     "--kind", "both", "--profile"])
        rows = {line.split()[0] for line in
                capsys.readouterr().err.splitlines() if line.strip()}
        assert code == 0
        assert {"sim.run", "faults.masked_reverse_bfs"} <= rows

    def test_json_stdout_stays_machine_readable(self, capsys):
        code = main(["properties", "MS", "--l", "2", "--n", "2",
                     "--json", "--metrics"])
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)  # metrics table must not pollute stdout

    def test_properties_json(self, capsys):
        code = main(["properties", "MS", "--l", "2", "--n", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "MS(2,2)"
        assert data["nodes"] == 120
        assert data["sdc_slowdown"] == 3

    def test_properties_json_rotator_slowdown_null(self, capsys):
        code = main(["properties", "MR", "--l", "2", "--n", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sdc_slowdown"] is None

    def test_mnb_json(self, capsys):
        code = main(["mnb", "star", "--k", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "network": "star(4)", "nodes": 24, "model": "sdc",
            "rounds": 23, "optimal": 23, "complete": True,
        }

    def test_flags_leave_global_noops_installed(self, tmp_path):
        main(["properties", "MS", "--l", "2", "--n", "2", "--metrics",
              "--trace-out", str(tmp_path / "t.jsonl"), "--profile"])
        assert isinstance(get_tracer(), NoopTracer)
        assert isinstance(get_registry(), NullRegistry)


class TestLogHistogram:
    def _exact_percentile(self, values, q):
        ordered = sorted(values)
        rank = max(1, -(-int(q / 100.0 * len(ordered) * 1000) // 1000))
        import math
        k = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[k - 1]

    def test_quantiles_within_one_bucket(self):
        import random

        from repro.obs import LogHistogram

        rng = random.Random(7)
        values = [rng.lognormvariate(2.0, 1.5) for _ in range(5000)]
        hist = LogHistogram()
        hist.observe_many(values)
        for q in (50.0, 90.0, 99.0):
            exact = self._exact_percentile(values, q)
            estimate = hist.percentile(q)
            # geometric bucket midpoint: at most one bucket width off
            assert exact / hist.growth <= estimate <= exact * hist.growth

    def test_merge_matches_union(self):
        import random

        from repro.obs import LogHistogram

        rng = random.Random(3)
        a_vals = [rng.uniform(0.1, 50.0) for _ in range(400)]
        b_vals = [rng.uniform(5.0, 500.0) for _ in range(600)]
        a, b, union = LogHistogram(), LogHistogram(), LogHistogram()
        a.observe_many(a_vals)
        b.observe_many(b_vals)
        union.observe_many(a_vals + b_vals)
        a.merge(b)
        assert a.count == union.count == 1000
        assert a.sum == pytest.approx(union.sum)
        assert a.min == union.min and a.max == union.max
        for q in (1.0, 50.0, 99.0):
            assert a.percentile(q) == union.percentile(q)

    def test_merge_geometry_mismatch_raises(self):
        from repro.obs import LogHistogram

        with pytest.raises(ValueError):
            LogHistogram().merge(LogHistogram(growth=2.0))

    def test_memory_stays_bounded(self):
        from repro.obs import LogHistogram

        hist = LogHistogram()
        for i in range(50_000):
            hist.observe((i % 997) * 1e3 + 1e-9)
        hist.observe(1e30)  # clamps into the last bucket
        assert hist.occupied_buckets() <= hist.max_buckets
        assert hist.count == 50_001
        assert hist.max == 1e30  # exact extremes survive clamping

    def test_dict_round_trip(self):
        from repro.obs import LogHistogram

        hist = LogHistogram()
        hist.observe_many([0.5, 3.0, 3.1, 40.0])
        clone = LogHistogram.from_dict(
            json.loads(json.dumps(hist.to_dict()))
        )
        assert clone.count == hist.count
        assert clone.sum == pytest.approx(hist.sum)
        assert clone.percentile(50.0) == hist.percentile(50.0)
        assert clone.to_dict() == hist.to_dict()

    def test_edge_percentiles(self):
        from repro.obs import LogHistogram

        hist = LogHistogram()
        assert hist.percentile(50.0) is None
        assert hist.mean is None
        hist.observe(7.25)
        # single sample: clamping to [min, max] makes every q exact
        for q in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 7.25

    def test_loadgen_latencies_are_bounded(self):
        """Satellite: run_loadgen tracks latency in a bounded histogram
        — memory stays flat and p50/p99 stay within one bucket."""
        import random

        from repro.serve import LoadGenResult

        rng = random.Random(11)
        result = LoadGenResult()
        values = [rng.lognormvariate(1.0, 1.0) for _ in range(30_000)]
        for value in values:
            result.latency_hist.observe(value)
        assert result.latency_hist.occupied_buckets() \
            <= result.latency_hist.max_buckets
        growth = result.latency_hist.growth
        exact_p50 = self._exact_percentile(values, 50.0)
        exact_p99 = self._exact_percentile(values, 99.0)
        assert exact_p50 / growth <= result.p50_ms <= exact_p50 * growth
        assert exact_p99 / growth <= result.p99_ms <= exact_p99 * growth


class TestLabelCardinalityCap:
    def test_counter_folds_past_cap_and_warns_once(self):
        from repro.obs import OVERFLOW_KEY

        registry = MetricsRegistry(max_label_sets=4)
        counter = registry.counter("bench.series")
        with pytest.warns(RuntimeWarning, match="bench.series"):
            for i in range(10):
                counter.inc(1, worker=str(i))
        # another overflow inc does NOT warn again
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.inc(1, worker="yet-another")
        series = counter.series()
        assert OVERFLOW_KEY in series
        assert series[OVERFLOW_KEY] == 7  # 10 - 4 kept + 1 extra
        assert counter.total() == 11  # nothing lost, just folded

    def test_overflow_is_counted_in_registry(self):
        registry = MetricsRegistry(max_label_sets=2)
        gauge = registry.gauge("hot.gauge")
        with pytest.warns(RuntimeWarning):
            for i in range(5):
                gauge.set(i, shard=str(i))
        snap = registry.snapshot()
        overflow = snap["counters"]["obs.label_overflow"]
        assert overflow[0]["labels"] == {"instrument": "hot.gauge"}
        assert overflow[0]["value"] == 3

    def test_under_cap_no_warning(self):
        import warnings

        registry = MetricsRegistry(max_label_sets=8)
        hist = registry.histogram("ok.hist")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(8):
                hist.observe(float(i), op=str(i))
        assert not hist.overflowed

    def test_existing_series_still_writable_past_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("c")
        counter.inc(1, op="a")
        counter.inc(1, op="b")
        with pytest.warns(RuntimeWarning):
            counter.inc(1, op="c")  # new series: folds
        counter.inc(5, op="a")  # existing series: unaffected
        assert counter.value(op="a") == 6


class TestPropagate:
    def test_context_round_trip(self):
        from repro.obs import TraceContext, extract, inject

        ctx = TraceContext("abc123", "parent-1")
        request = {"op": "distance", "id": 3}
        wired = inject(request, ctx)
        assert "trace" not in request  # original untouched
        assert extract(wired) == ctx
        assert extract(request) is None
        assert extract("not a dict") is None

    def test_strip_removes_context(self):
        from repro.obs import TraceContext, inject, strip

        wired = inject({"op": "stats"}, TraceContext("t1"))
        assert strip(wired) == {"op": "stats"}
        bare = {"op": "stats"}
        assert strip(bare) is bare

    def test_remote_span_chain(self):
        import os

        from repro.obs import SpanBuffer, TraceContext, start_span

        buffer = SpanBuffer()
        root_ctx = TraceContext("trace-9")
        with start_span("client.request", root_ctx,
                        {"op": "distance"}, buffer=buffer) as root:
            child_ctx = root.context()
            assert child_ctx.trace_id == "trace-9"
            assert child_ctx.parent_span_id == root.span_id
            with start_span("server.request", child_ctx,
                            buffer=buffer) as child:
                pass
        spans = buffer.drain()
        assert [s["name"] for s in spans] \
            == ["server.request", "client.request"]
        server, client = spans
        assert server["parent_span_id"] == client["span_id"]
        assert client["parent_span_id"] is None
        assert all(s["pid"] == os.getpid() for s in spans)
        assert all(s["duration_ms"] >= 0 for s in spans)

    def test_unsampled_is_none(self):
        from repro.obs import start_span

        assert start_span("anything", None) is None

    def test_span_failure_marked_but_raises(self):
        from repro.obs import SpanBuffer, TraceContext, start_span

        buffer = SpanBuffer()
        with pytest.raises(RuntimeError):
            with start_span("boom", TraceContext("t"), buffer=buffer):
                raise RuntimeError("nope")
        (span,) = buffer.drain()
        assert span["ok"] is False
        assert span["attributes"]["error"] == "RuntimeError"

    def test_span_buffer_bounded(self):
        from repro.obs import SpanBuffer

        buffer = SpanBuffer(capacity=3)
        for i in range(10):
            buffer.append({"i": i})
        assert len(buffer) == 3
        assert buffer.dropped == 7
        assert [s["i"] for s in buffer.peek()] == [7, 8, 9]
        assert [s["i"] for s in buffer.drain()] == [7, 8, 9]
        assert len(buffer) == 0

    def test_span_ids_unique_across_threads(self):
        import threading

        from repro.obs import new_span_id

        ids = []
        lock = threading.Lock()

        def mint():
            minted = [new_span_id() for _ in range(200)]
            with lock:
                ids.extend(minted)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == len(ids)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("tick", i=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [e["i"] for e in recorder.events()] == [6, 7, 8, 9]
        assert all(e["kind"] == "tick" for e in recorder.events())

    def test_dump_writes_artifact(self, tmp_path):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
        recorder.record("server.drain", port=7421)
        path = recorder.dump(
            "drain", directory=str(tmp_path),
            spans=[{"name": "server.request"}],
            extra={"clean": True},
        )
        assert path is not None and path.exists()
        assert "drain" in path.name
        payload = json.loads(path.read_text())
        assert payload["reason"] == "drain"
        assert payload["events"][0]["kind"] == "server.drain"
        assert payload["spans"] == [{"name": "server.request"}]
        assert payload["extra"] == {"clean": True}
        assert recorder.dumps == 1

    def test_dump_without_destination_is_none(self, monkeypatch):
        from repro.obs import FLIGHT_DIR_ENV, FlightRecorder

        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        recorder = FlightRecorder()
        recorder.record("x")
        assert recorder.dump("kill") is None
        assert recorder.dumps == 0

    def test_env_var_enables_dumping(self, tmp_path, monkeypatch):
        from repro.obs import FLIGHT_DIR_ENV, FlightRecorder

        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        recorder = FlightRecorder()
        recorder.record("chaos.kill", replica="replica-1")
        path = recorder.dump("kill")
        assert path is not None and path.parent == tmp_path

    def test_global_recorder_reset(self):
        from repro.obs import (
            get_flight_recorder,
            record_event,
            reset_flight_recorder,
        )

        reset_flight_recorder()
        record_event("router.replica-down", replica="r0")
        assert get_flight_recorder().events()[-1]["kind"] \
            == "router.replica-down"
        reset_flight_recorder()
        assert len(get_flight_recorder()) == 0


class TestTraceCollector:
    def _span(self, trace_id, span_id, parent, name, pid=1, start=0.0):
        return {
            "trace_id": trace_id, "span_id": span_id,
            "parent_span_id": parent, "name": name, "pid": pid,
            "start_ts": start, "end_ts": start + 1.0,
            "duration_ms": 1000.0, "ok": True, "attributes": {},
        }

    def test_tree_assembly_and_parentage(self):
        from repro.obs import TraceCollector, parentage_path, span_names

        collector = TraceCollector()
        collector.add_many([
            self._span("t1", "a-2", "a-1", "router.route", pid=1,
                       start=1.0),
            self._span("t1", "a-1", None, "client.request", pid=1,
                       start=0.0),
            self._span("t1", "b-1", "a-2", "server.request", pid=2,
                       start=2.0),
        ])
        tree = collector.tree("t1")
        assert tree["spans"] == 3
        assert tree["pids"] == [1, 2]
        assert tree["orphans"] == 0
        assert span_names(tree) \
            == ["client.request", "router.route", "server.request"]
        assert parentage_path(tree, "server.request") \
            == ["client.request", "router.route", "server.request"]

    def test_orphans_kept_and_flagged(self):
        from repro.obs import TraceCollector

        collector = TraceCollector()
        collector.add(self._span("t2", "x-2", "never-arrived", "lonely"))
        tree = collector.tree("t2")
        assert tree["orphans"] == 1
        assert tree["roots"][0]["orphan"] is True

    def test_malformed_spans_counted_not_raised(self):
        from repro.obs import TraceCollector

        collector = TraceCollector()
        collector.add_many([
            {"no": "ids"}, "not a dict",
            self._span("t3", "s-1", None, "ok"),
        ])
        assert collector.malformed == 2
        assert collector.trace_ids() == ["t3"]

    def test_jsonl_round_trip(self, tmp_path):
        from repro.obs import (
            TraceCollector,
            read_trace_trees,
            write_trace_trees,
        )

        collector = TraceCollector()
        collector.add_many([
            self._span("t4", "r-1", None, "client.request"),
            self._span("t5", "q-1", None, "client.request"),
        ])
        path = tmp_path / "trees.jsonl"
        assert write_trace_trees(collector.trees(), path) == 2
        loaded = read_trace_trees(path)
        assert loaded == collector.trees()


class TestMergeMetricsSnapshots:
    """Satellite: repro.obs.export merge coverage — round-trip, two
    process snapshots, deterministic ordering."""

    def _two_process_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("serve.queries").inc(3, op="distance")
        b.counter("serve.queries").inc(4, op="distance")
        b.counter("serve.queries").inc(2, op="route")
        a.gauge("serve.queue_depth").set(5)
        b.gauge("serve.queue_depth").set(9)
        for value in (1.0, 2.0, 4.0):
            a.histogram("serve.latency_ms").observe(value)
        for value in (8.0, 16.0):
            b.histogram("serve.latency_ms").observe(value)
        return a.snapshot(), b.snapshot()

    def test_counters_add_gauges_lww_histograms_merge(self):
        from repro.obs import merge_metrics_snapshots

        snap_a, snap_b = self._two_process_snapshots()
        merged = merge_metrics_snapshots([snap_a, snap_b])
        queries = {
            tuple(sorted(row["labels"].items())): row["value"]
            for row in merged["counters"]["serve.queries"]
        }
        assert queries[(("op", "distance"),)] == 7
        assert queries[(("op", "route"),)] == 2
        (depth,) = merged["gauges"]["serve.queue_depth"]
        assert depth["value"] == 9  # last write wins
        (lat,) = merged["histograms"]["serve.latency_ms"]
        assert lat["count"] == 5
        assert lat["min"] == 1.0 and lat["max"] == 16.0

    def test_extra_labels_keep_sources_apart(self):
        from repro.obs import merge_metrics_snapshots

        snap_a, snap_b = self._two_process_snapshots()
        merged = merge_metrics_snapshots(
            [snap_a, snap_b],
            extra_labels=[{"shard": 0}, {"shard": 1}],
        )
        rows = merged["histograms"]["serve.latency_ms"]
        assert [row["labels"]["shard"] for row in rows] == ["0", "1"]
        assert [row["count"] for row in rows] == [3, 2]

    def test_deterministic_ordering(self):
        from repro.obs import merge_metrics_snapshots

        snap_a, snap_b = self._two_process_snapshots()
        once = merge_metrics_snapshots([snap_a, snap_b])
        again = merge_metrics_snapshots([snap_a, snap_b])
        assert json.dumps(once, sort_keys=True) \
            == json.dumps(again, sort_keys=True)
        # JSON round-trip preserves the merged snapshot exactly
        assert json.loads(json.dumps(once)) == once

    def test_extra_labels_length_mismatch(self):
        from repro.obs import merge_metrics_snapshots

        with pytest.raises(ValueError):
            merge_metrics_snapshots(
                [MetricsRegistry().snapshot()], extra_labels=[{}, {}]
            )

    def test_merge_of_loaded_snapshots(self, tmp_path):
        from repro.obs import merge_metrics_snapshots

        snap_a, snap_b = self._two_process_snapshots()
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        path_a.write_text(json.dumps(snap_a))
        path_b.write_text(json.dumps(snap_b))
        merged = merge_metrics_snapshots([
            json.loads(path_a.read_text()),
            json.loads(path_b.read_text()),
        ])
        assert merged == merge_metrics_snapshots([snap_a, snap_b])
