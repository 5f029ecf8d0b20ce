"""Shared-table benchmark: one host copy vs a private copy per worker.

The multi-layer refactor's acceptance numbers, measured on MS(7,1)
(``k = 8``, ``8! = 40320`` nodes — the same instance as
``bench_serve.py``):

* **RSS**: in a 1 -> 8 worker sweep with ``--shared-tables`` semantics
  (the parent creates the store file in ``/dev/shm``, workers attach
  it read-only and touch every table page), each worker's *private*
  RSS growth must be at most 15% of the single-copy table footprint.  A baseline sweep where
  each worker compiles its own tables shows the ~100% it replaces.
* **attach latency**: attaching the pre-built store must be at least
  5x faster than the cold in-process compile the baseline workers pay.
* **equivalence**: a shared-tables engine and shard pool answer a
  fixed query mix byte-identically to a private engine, with closed
  accounting.

Private RSS is read from ``/proc/self/smaps_rollup``
(``Private_Clean + Private_Dirty``), so pages backed by the shared
store — resident but shared — do not count against a worker.

Writes ``benchmarks/results/BENCH_shared_tables.json`` with the
structured sweep rows (plus the usual text table).
"""

import gc
import json
import multiprocessing
import pathlib
import random
import time

import numpy as np

from repro.core import tablestore
from repro.core.permutations import Permutation
from repro.io import attach_compiled_tables, release_compiled_tables
from repro.networks import MacroStar
from repro.serve import QueryEngine, node_str
from repro.serve.shard import ShardPool

MAX_RSS_FRACTION = 0.15
REQUIRED_ATTACH_SPEEDUP = 5.0
WORKER_COUNTS = (1, 2, 4, 8)
NUM_QUERY_PAIRS = 64

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _network():
    return MacroStar(7, 1)


def _spec():
    return {"family": "MS", "l": 7, "n": 1}


def _probe_requests():
    rng = random.Random(17)
    pairs = [
        [node_str(Permutation.random(8, rng)),
         node_str(Permutation.random(8, rng))]
        for _ in range(NUM_QUERY_PAIRS)
    ]
    nodes = [p[0] for p in pairs[:4]]
    return [
        {"op": "distance", "network": _spec(), "pairs": pairs},
        {"op": "route", "network": _spec(), "pairs": pairs[:2]},
        {"op": "neighbors", "network": _spec(), "nodes": nodes},
    ]


def _private_rss_kb():
    total = 0
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total


def _worker(mode, out):
    """Acquire MS(7,1) tables (attach or private compile), touch every
    table page, answer the probe mix; report timing + private-RSS
    growth.

    The RSS window brackets *only* acquire + page-touch: a forked
    CPython privatises copy-on-write pages just by running (refcount
    writes and lazy imports), so the worker first exercises the *same*
    code path end to end on a tiny instance (MS(2,1), 6 nodes, store
    pre-created by the parent) to flush that noise out of the
    measurement.  It then runs the garbage collector: a worker inherits
    the parent's generation-0 count at fork, and a collection inside
    the window would privatise inherited heap pages that are not
    table memory."""
    warm = MacroStar(2, 1)
    if mode == "shared":
        warm_compiled, _ = attach_compiled_tables(warm, create=False)
    else:
        warm_compiled = warm.compiled()
        warm_compiled.distances
    for arr in tablestore.table_arrays(warm_compiled).values():
        np.asarray(arr).reshape(-1).view(np.uint8)[::512].sum()
    net = _network()
    gc.collect()
    rss_before = _private_rss_kb()
    started = time.perf_counter()
    if mode == "shared":
        compiled, attach_mode = attach_compiled_tables(net)
    else:
        compiled = net.compiled()
        compiled.distances
        attach_mode = "private"
    acquire_ms = (time.perf_counter() - started) * 1000.0
    # fault in every page of every table so RSS is honest
    touched = 0
    for arr in tablestore.table_arrays(compiled).values():
        touched += int(np.asarray(arr).reshape(-1).view(np.uint8)[::512].sum())
    rss_after = _private_rss_kb()
    engine = QueryEngine(shared_tables=(mode == "shared"))
    engine._graphs.put(
        tuple(sorted((k, str(v)) for k, v in _spec().items())), net
    )
    responses = [engine.execute(dict(r)) for r in _probe_requests()]
    out.put({
        "mode": attach_mode,
        "acquire_ms": acquire_ms,
        "rss_delta_kb": rss_after - rss_before,
        "table_nbytes": compiled.table_nbytes(),
        "touched": touched,
        "responses": responses,
    })


def _run_sweep(mode, num_workers):
    ctx = multiprocessing.get_context()
    out = ctx.Queue()
    workers = [
        ctx.Process(target=_worker, args=(mode, out))
        for _ in range(num_workers)
    ]
    for proc in workers:
        proc.start()
    rows = [out.get(timeout=120) for _ in workers]
    for proc in workers:
        proc.join(timeout=120)
    return rows


def test_shared_tables_sweep(report):
    net = _network()
    reference = net.compiled()
    reference.distances
    footprint = sum(
        arr.nbytes for arr in tablestore.table_arrays(reference).values()
    )
    expected = [
        QueryEngine().execute(dict(r)) for r in _probe_requests()
    ]

    # one host copy, created once by this (parent) process (plus the
    # tiny MS(2,1) store the workers' warm-up phase attaches)
    handle = tablestore.create_store(net)
    warm_handle = tablestore.create_store(MacroStar(2, 1))
    sweep = []
    try:
        baseline = _run_sweep("private", 2)
        for count in WORKER_COUNTS:
            rows = _run_sweep("shared", count)
            assert all(r["mode"] == "attach" for r in rows)
            assert all(r["responses"] == expected for r in rows), \
                "shared-tables serving diverged from the private engine"
            assert all(
                r["table_nbytes"]["shared"] == footprint
                and r["table_nbytes"]["private"] == 0
                for r in rows
            )
            sweep.append({
                "workers": count,
                "attach_ms": [round(r["acquire_ms"], 3) for r in rows],
                "rss_delta_kb": [r["rss_delta_kb"] for r in rows],
            })
    finally:
        tablestore.unlink_segment(handle.name)
        tablestore.unlink_segment(warm_handle.name)

    compile_ms = float(np.median([r["acquire_ms"] for r in baseline]))
    attach_ms = float(np.median(
        [ms for row in sweep for ms in row["attach_ms"]]
    ))
    speedup = compile_ms / attach_ms
    baseline_rss_kb = float(np.median(
        [r["rss_delta_kb"] for r in baseline]
    ))
    worst_shared_rss_kb = max(
        kb for row in sweep for kb in row["rss_delta_kb"]
    )
    footprint_kb = footprint / 1024.0

    # -- serving equivalence through a real shard pool + closed books --
    pool = ShardPool(num_shards=4, shared_tables=True)
    pool.prepare_shared_tables([_spec()])
    with pool:
        pool_responses = pool.execute_many(
            [dict(r) for r in _probe_requests()]
        )
        stats = pool.stats()
    assert pool_responses == expected
    assert stats["closed"] and stats["failed"] == 0
    assert not tablestore.list_host_segments()

    lines = [
        f"single-copy table footprint: {footprint_kb:.0f} KiB",
        f"cold private compile (median of {len(baseline)}): "
        f"{compile_ms:.1f} ms, private RSS +{baseline_rss_kb:.0f} KiB",
        f"shared attach (median across sweep): {attach_ms:.2f} ms "
        f"({speedup:.0f}x faster)",
        "",
        f"{'workers':>7}  {'attach p50 ms':>13}  {'worst RSS KiB':>13}  "
        f"{'% of footprint':>14}",
    ]
    for row in sweep:
        worst = max(row["rss_delta_kb"])
        lines.append(
            f"{row['workers']:>7}  "
            f"{float(np.median(row['attach_ms'])):>13.2f}  "
            f"{worst:>13}  {100.0 * worst / footprint_kb:>13.1f}%"
        )
    lines.append("")
    lines.append(
        f"shard pool (4 workers, shared): byte-identical, "
        f"accounting closed ({stats['submitted']} submitted)"
    )
    report("shared_tables", lines)

    # structured artefact on top of the text lines
    (RESULTS_DIR / "BENCH_shared_tables.json").write_text(json.dumps({
        "name": "shared_tables",
        "network": "MS(7,1)",
        "footprint_bytes": footprint,
        "cold_compile_ms": round(compile_ms, 3),
        "attach_ms_median": round(attach_ms, 4),
        "attach_speedup": round(speedup, 1),
        "baseline_private_rss_kb": baseline_rss_kb,
        "max_rss_fraction_allowed": MAX_RSS_FRACTION,
        "sweep": sweep,
        "pool": {
            "workers": 4,
            "byte_identical": True,
            "accounting_closed": bool(stats["closed"]),
        },
        "lines": lines,
    }, indent=1))

    assert speedup >= REQUIRED_ATTACH_SPEEDUP, (
        f"attach {attach_ms:.2f} ms is only {speedup:.1f}x faster than "
        f"the {compile_ms:.1f} ms cold compile"
    )
    assert worst_shared_rss_kb <= MAX_RSS_FRACTION * footprint_kb, (
        f"worst shared worker grew {worst_shared_rss_kb} KiB private — "
        f"more than {MAX_RSS_FRACTION:.0%} of the "
        f"{footprint_kb:.0f} KiB footprint"
    )
    release_compiled_tables()
