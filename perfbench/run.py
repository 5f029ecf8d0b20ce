"""The repository's end-to-end benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workloads, the metrics and
their units, directions and bounds are declared in ``BENCHMARK.json``:

* ``frontier_undirected`` -- ``FrontierBFS(MS(8,1), 8 MiB).run()`` in RAM;
* ``frontier_directed_spill`` -- ``FrontierBFS(MR(4,2), 8 MiB,
  spill_dir).run()``, every layer through disk;
* ``fault_sweep`` -- ``repro.experiments.fault_sweep`` on MS(7,1), what
  ``repro faults`` runs;
* ``serve_mixed`` -- ``repro serve --warm MS(7,1)`` under a closed-loop
  request mix (``serving.py``).

A batch workload runs several jobs, each in a fresh process
(``jobs.py``), so every job times its own set-up and peak RSS belongs to
the job alone.  Every process started gets ``PYTHONPATH=src`` and a
``PYTHONHASHSEED`` derived from ``--seed``, and writes only under
``.perfbench_tmp/`` in the checkout.

``--trace 0`` reports every end-to-end metric on every workload:

* ``setup_s`` -- median over the run's jobs of first statement to timed
  phase (imports and construction); for serving, over ``SETUPS``
  server starts of spawn to first answer;
* ``run_s`` -- median profile or sweep time; for serving, the fixed
  stream's size over ``throughput_rps``;
* ``peak_rss_mib`` -- median ``VmHWM`` of the jobs; the server's;
* ``throughput_rps`` -- settled states or swept packets per second of
  ``run_s``; for serving, answered requests per second;
* ``p50_ms``, ``p90_ms`` -- percentiles over the run's jobs of a job's
  latency, set-up plus run; for serving, per-request latency.

So ``throughput_rps`` restates ``run_s`` on the batch workloads, and
``run_s`` restates ``throughput_rps`` on ``serve_mixed``.  ``--trace 1``
reports the per-layer metrics of a traced run instead; layers a
workload bypasses read zero.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds host diagnostics.  Exit code 0 means every
output check passed, 1 that one failed, 2 that the benchmark could not
run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: nominal seconds one job of a batch workload takes, set-up included,
#: on a 2-CPU host.  They fix each run's job count from ``--seconds``,
#: so a run does the same work on every commit.
NOMINAL_JOB_S = {
    "frontier_undirected": 2.0,
    "frontier_directed_spill": 2.6,
    "fault_sweep": 3.4,
}
MIN_JOBS = 3
#: ceiling on one child process; a run must end within 180 seconds.
CHILD_TIMEOUT_S = 170.0


def read_cpu_ticks():
    """Aggregate ``/proc/stat`` CPU ticks: (steal, total)."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_child(command, env, timeout):
    """Run ``command`` in its own process group; its last stdout line
    parsed as JSON.  On timeout the whole group (a serving client's
    servers included) is killed and waited for."""
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{command[1]} timed out after {timeout}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command[1:3])} exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


def batch_workload(args, env, tmp):
    """Jobs in fresh processes; metrics from their reports.

    Every statistic is a median (or a percentile) over the run's jobs,
    so a few jobs slowed by a noisy host do not move it.  Frontier jobs
    repeat one input; fault sweep job ``j`` sweeps seed
    ``1000 * seed + j``."""
    name = args.workload
    jobs = max(MIN_JOBS, int(args.seconds // NOMINAL_JOB_S[name]))
    if args.trace:
        jobs = max(2, jobs // 2)
    plain, traced = [], []
    for j in range(jobs):
        base = [sys.executable, str(HERE / "jobs.py"), name,
                "--seed", str(1000 * args.seed + j), "--tmp", str(tmp)]
        oracle = ["--oracle"] if j == jobs - 1 else []
        plain.append(run_child(base + oracle, env, CHILD_TIMEOUT_S))
        if args.trace:
            traced.append(run_child(base + ["--trace"], env,
                                    CHILD_TIMEOUT_S))
    reports = plain + traced
    problems = [p for job in reports for p in job["problems"]]
    failed = sum(1 for job in reports if job["problems"])

    def median(key, group=plain):
        return statistics.median(job[key] for job in group)

    if args.trace:
        metrics = {
            key: statistics.median(
                job["layers"].get(key, 0.0) for job in traced)
            for key in traced[0]["layers"]
        }
        metrics["bench.trace_overhead_pct"] = \
            (median("run_s", traced) / median("run_s") - 1.0) * 100.0
    else:
        # a job's latency: from its first statement to its result
        latency_ms = [1000.0 * (job["setup_s"] + job["run_s"])
                      for job in plain]
        metrics = {
            "setup_s": median("setup_s"),
            "run_s": median("run_s"),
            "peak_rss_mib": median("peak_rss_mib"),
            "throughput_rps": median("ops") / median("run_s"),
            "p50_ms": statistics.median(latency_ms),
            "p90_ms": statistics.quantiles(
                latency_ms, n=10, method="inclusive")[8],
        }
    return len(reports), failed, problems, metrics


def serve_workload(args, env):
    command = [sys.executable, str(HERE / "serving.py"),
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command.append("--trace")
    report = run_child(command, env, CHILD_TIMEOUT_S)
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {key: report[key] for key in (
            "setup_s", "run_s", "peak_rss_mib", "throughput_rps",
            "p50_ms", "p90_ms",
        )}
    return report["attempted"], report["failed"], report["problems"], \
        metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # SIGTERM unwinds like an error, so children and files are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": str(args.seed % 2 ** 32),
        "TMPDIR": str(tmp),
    })
    steal0, total0 = read_cpu_ticks()
    started = time.perf_counter()
    try:
        if args.workload == "serve_mixed":
            outcome = serve_workload(args, env)
        else:
            outcome = batch_workload(args, env, tmp)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} did not run: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    attempted, failed, problems, values = outcome
    steal1, total1 = read_cpu_ticks()
    diagnostics = {
        "host.steal_pct": 100.0 * (steal1 - steal0)
        / max(total1 - total0, 1),
        "host.cpus": len(os.sched_getaffinity(0)),
        "wall_s": time.perf_counter() - started,
    }
    if args.trace:
        values.update(diagnostics)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    missing = [m["name"] for m in declared
               if m["name"] not in values and not args.trace]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    correct = not problems and failed == 0
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": correct, "attempted": int(attempted),
        "failed": int(failed), "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
