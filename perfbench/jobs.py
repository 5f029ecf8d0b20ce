"""One job of a batch workload, run in a fresh process by ``run.py``.

    python perfbench/jobs.py WORKLOAD --seed N --tmp DIR [--trace] [--oracle]

A job is one frontier profile or one fault sweep.  It times its own
set-up (from this file's first statement to the start of the timed
phase: imports and instance construction), runs the timed phase once,
checks the output, and prints one JSON object as its last stdout line.
``--trace`` wraps the layers' public functions (see ``layers.py``);
``--oracle`` also compares the frontier profile with the compiled
whole-graph BFS after the timings and peak RSS are taken.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

#: the two frontier workloads: one k = 9 instance each, 8 MiB budget.
FRONTIER = {
    "frontier_undirected": ("MS", 8, 1, False),
    "frontier_directed_spill": ("MR", 4, 2, True),
}
FRONTIER_BUDGET = 8 * 1024 * 1024

#: the fault sweep ``repro faults MS --l 7 --n 1 --kind both`` runs.
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
FAULT_PACKETS = 100


def peak_rss_mib() -> float:
    """This process's peak resident set size (``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def frontier_job(args) -> dict:
    from repro.frontier import engine
    from repro.networks import make_network

    family, l, n, spill = FRONTIER[args.workload]
    timeline = None
    if args.trace:
        from layers import Timeline
        from repro.frontier.spill import FrontierRunDir

        timeline = Timeline()
        timeline.patch(engine, "in_any", "dedup")
        timeline.patch(engine, "expand_states", "expand")
        timeline.patch(FrontierRunDir, "write_segment", "spill")
        timeline.patch(FrontierRunDir, "commit_layer", "spill")
        make_key_fn = engine.make_key_fn

        def timed_make_key_fn(k, seed=0):
            key_fn, exact = make_key_fn(k, seed)
            return timeline.wrap("key", key_fn), exact

        engine.make_key_fn = timed_make_key_fn

    graph = make_network(family, l=l, n=n)
    spill_dir = Path(args.tmp) / "spill" if spill else None
    marks = []
    bfs = engine.FrontierBFS(
        graph,
        memory_budget_bytes=FRONTIER_BUDGET,
        spill_dir=spill_dir,
        on_layer=lambda depth, size: marks.append(time.perf_counter()),
    )
    setup_s = time.perf_counter() - T0
    start = time.perf_counter()
    result = bfs.run()
    run_s = time.perf_counter() - start
    peak = peak_rss_mib()

    problems = []
    if spill_dir is not None and spill_dir.exists():
        problems.append(f"spill dir {spill_dir} left after success")
    states = math.factorial(graph.k)
    if sum(result.layer_sizes) != states or result.num_states != states:
        problems.append(
            f"layer sizes sum to {sum(result.layer_sizes)} and "
            f"num_states is {result.num_states}, not {states}"
        )
    if len(marks) != len(result.layer_sizes):
        problems.append("on_layer did not fire once per layer")
    if args.oracle:
        expected = graph.compiled().distance_distribution()
        if list(result.layer_sizes) != list(expected):
            problems.append(
                f"layer sizes {result.layer_sizes} != compiled {expected}"
            )
    job = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mib": peak,
        "ops": result.num_states,
        "problems": problems,
    }
    if timeline is not None:
        leaves = ("dedup", "key", "expand", "spill")
        busy = {name: timeline.busy(name) for name in leaves}
        layers = {f"frontier.{name}_s": busy[name] for name in leaves}
        layers["frontier.self_s"] = run_s - sum(busy.values())
        # time to finish each layer after the previous one: the gap
        # between consecutive on_layer progress callbacks
        for depth, (a, b) in enumerate(zip(marks, marks[1:]), start=1):
            layers[f"frontier.layer_s.d{depth}"] = b - a
        layers.update({
            "frontier.batches": result.batches,
            "frontier.candidates": result.candidates,
            "frontier.dedup_ratio": result.dedup_ratio,
            "frontier.spilled_mib": result.spilled_bytes / 2 ** 20,
        })
        overlap = timeline.overlap(leaves)
        if overlap > 1e-6:
            problems.append(f"frontier layer times overlap by {overlap}s")
        if layers["frontier.self_s"] < 0:
            problems.append("frontier layer times exceed run_s")
        job["layers"] = layers
    return job


def fault_job(args) -> dict:
    from repro.experiments import fault_sweep

    timeline = tracer = None
    recording = nullcontext()
    if args.trace:
        from layers import Timeline
        from repro.comm.simulator import PacketSimulator
        from repro.faults import FaultInjector, FaultMask
        from repro.obs import Tracer, use_tracer

        timeline = Timeline()
        timeline.patch(FaultMask, "distances_to", "reverse_bfs")
        timeline.patch(FaultInjector, "random", "injector")
        timeline.patch(PacketSimulator, "run", "sim")
        tracer = Tracer()
        recording = use_tracer(tracer)

    setup_s = time.perf_counter() - T0
    start = time.perf_counter()
    with recording:
        rows = list(fault_sweep(
            "MS", l=7, n=1, rates=FAULT_RATES, fault_kind="both",
            packets=FAULT_PACKETS, policy="reroute", seed=args.seed,
        ))
    run_s = time.perf_counter() - start
    peak = peak_rss_mib()

    problems = []
    if len(rows) != len(FAULT_RATES):
        problems.append(f"{len(rows)} sweep rows for {len(FAULT_RATES)} rates")
    for rate, row in zip(FAULT_RATES, rows):
        if row.delivered + row.dropped != row.packets \
                or row.packets != FAULT_PACKETS:
            problems.append(
                f"rate {rate}: {row.delivered} delivered + {row.dropped} "
                f"dropped != {row.packets} packets"
            )
        if rate == 0 and (row.rerouted or row.dropped):
            problems.append(
                f"rate 0 rerouted {row.rerouted}, dropped {row.dropped}"
            )
    job = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mib": peak,
        "ops": sum(row.packets for row in rows),
        "problems": problems,
    }
    if timeline is not None:
        timeline.add_spans(tracer.spans, {
            "compiled.moves": "compile", "compiled.bfs": "compile",
        })
        leaves = ("compile", "reverse_bfs", "injector")
        overlap = timeline.overlap(leaves)
        if overlap > 1e-6:
            problems.append(f"fault layer times overlap by {overlap}s")
        sim_self = timeline.busy("sim") - sum(
            timeline.busy_within(name, "sim") for name in leaves
        )
        layers = {
            "core.compile_s": timeline.busy("compile"),
            "faults.reverse_bfs_s": timeline.busy("reverse_bfs"),
            "faults.reverse_bfs_calls": timeline.calls("reverse_bfs"),
            "faults.injector_s": timeline.busy("injector"),
            "comm.sim_self_s": sim_self,
            "faults.rerouted": sum(row.rerouted for row in rows),
            "faults.dropped": sum(row.dropped for row in rows),
            "sim.rounds": sum(row.rounds for row in rows),
        }
        timed = sum(
            layers[name] for name in (
                "core.compile_s", "faults.reverse_bfs_s",
                "faults.injector_s", "comm.sim_self_s",
            )
        )
        if timed > run_s:
            problems.append(f"fault layer times {timed}s exceed run_s")
        job["layers"] = layers
    return job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload",
                        choices=sorted(FRONTIER) + ["fault_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True,
                        help="directory for spill segments")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "fault_sweep":
        job = fault_job(args)
    else:
        job = frontier_job(args)
    print(json.dumps(job))
    return 0


if __name__ == "__main__":
    sys.exit(main())
