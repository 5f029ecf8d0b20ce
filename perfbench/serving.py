"""The ``serve_mixed`` workload: ``repro serve`` under a closed-loop mix.

    python perfbench/serving.py --seed N --seconds S [--trace]

This process is the benchmark's client.  It builds a seeded request
stream, starts the server in a process of its own, drives it over
``CONNECTIONS`` connections with binary frames, times every request
itself, checks the answers, and prints one JSON object as its last
stdout line.

The mix: uniform ``distance`` requests of 16 column-encoded pairs on
MS(7,1); about one in ten repeats one of ``POOL`` pooled requests, so
the engine's hot-query cache both hits and misses; one ``route``
request of 16 pairs per ~20 distance requests, sent as a JSON-header
frame.  Each connection runs a closed loop: it sends a window of
``WINDOW`` requests in one write and sends the next window after the
last answer arrives, so a request's latency runs from its window's
send to its own answer.

Set-up is timed ``SETUPS`` times, from spawning a server to its first
answer (the answer compiles the tables); the last server started
serves the stream.  Throughput and the latency percentiles are medians
over ``SEGMENTS`` equal-count pieces of the stream, so a few seconds of
a slowed host do not move them.  With ``--trace`` the stream runs
twice: on a plain server, then on one started through ``launcher.py``;
the per-layer numbers come from the second run and the throughput
ratio of the two is the tracing overhead.
"""

import argparse
import asyncio
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.serve import wire

HERE = Path(__file__).resolve().parent

SPEC = {"family": "MS", "l": 7, "n": 1}
K = 8
PAIRS = 16
WINDOW = 32
CONNECTIONS = 2
POOL = 8
ROUTE_SHARE = 1 / 21
REPEAT_SHARE = 0.1
SETUPS = 5
#: equal-count pieces of the stream whose median rate and latencies
#: are reported.
SEGMENTS = 24
#: requests in the stream per second of ``--seconds``: the fixed work
#: of a run, sized so the stream takes about that long on a 2-CPU host.
STREAM_RPS = 3000
#: answers checked against the compiled oracle, per op.
SAMPLE_DISTANCE = 192
SAMPLE_ROUTE = 64
#: ceiling on any single wait for the server (start, answer, exit).
TIMEOUT_S = 60.0

DISTANCE, POOLED, ROUTE = 0, 1, 2


# ----------------------------------------------------------------------
# The request stream
# ----------------------------------------------------------------------


def _pairs(perms: np.ndarray):
    """``(2m, K)`` permutation rows as ``m`` [source, target] digit
    string pairs."""
    text = (perms + 48).astype(np.uint8).tobytes().decode("ascii")
    nodes = [text[i:i + K] for i in range(0, len(text), K)]
    return [[nodes[i], nodes[i + 1]] for i in range(0, len(nodes), 2)]


def make_stream(seed: int, count: int):
    """``count`` seeded requests: their ops, their encoded frames, and
    the pairs of the seeded sample whose answers are checked."""
    rng = np.random.default_rng(seed)
    identity = np.arange(1, K + 1, dtype=np.uint8)
    perms = rng.permuted(
        np.tile(identity, ((count + POOL) * 2 * PAIRS, 1)), axis=1
    )
    pool = [
        _pairs(perms[(count + j) * 2 * PAIRS:(count + j + 1) * 2 * PAIRS])
        for j in range(POOL)
    ]
    draw = rng.random((count, 2))
    pool_pick = rng.integers(0, POOL, count)
    ops = np.where(
        draw[:, 0] < ROUTE_SHARE, ROUTE,
        np.where(draw[:, 1] < REPEAT_SHARE, POOLED, DISTANCE),
    )
    sample_rng = np.random.default_rng([seed, 1])
    routes = np.nonzero(ops == ROUTE)[0]
    distances = np.nonzero(ops != ROUTE)[0]
    sample = set(sample_rng.choice(
        routes, min(SAMPLE_ROUTE, routes.size), replace=False
    ).tolist()) | set(sample_rng.choice(
        distances, min(SAMPLE_DISTANCE, distances.size), replace=False
    ).tolist())
    frames, sampled = [], {}
    for i in range(count):
        if ops[i] == POOLED:
            request_pairs = pool[pool_pick[i]]
        else:
            request_pairs = _pairs(perms[i * 2 * PAIRS:(i + 1) * 2 * PAIRS])
        request = {
            "op": "route" if ops[i] == ROUTE else "distance",
            "network": SPEC, "pairs": request_pairs, "id": i,
        }
        if ops[i] == ROUTE:
            # any key beyond op/network/pairs sends the JSON-header frame
            request["algorithm"] = "table"
        frames.append(wire.encode_request(request))
        if i in sample:
            sampled[i] = request_pairs
    return ops, frames, sampled


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, traced: bool):
        command = [sys.executable]
        command += [str(HERE / "launcher.py")] if traced \
            else ["-m", "repro", "serve"]
        command += ["--host", "127.0.0.1", "--port", "0",
                    "--warm", json.dumps(SPEC)]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.stderr: list = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = None
        try:
            while self.port is None:
                line = self._next_line()
                if line.startswith("serving on "):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            self.lines.put(line)
        self.lines.put("")

    def _next_line(self) -> str:
        try:
            line = self.lines.get(timeout=TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server printed nothing for "
                               f"{TIMEOUT_S}s") from None
        if not line:
            raise RuntimeError("server exited early:\n"
                               + "".join(self.stderr))
        return line

    def layer_totals(self) -> dict:
        """The launcher's CPU totals so far (traced servers only)."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        while True:
            line = self._next_line()
            if line.startswith("PERFBENCH_LAYERS "):
                return json.loads(line.split(" ", 1)[1])

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> int:
        """SIGTERM (a graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=TIMEOUT_S)
        return code


async def _ask(port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=wire.WIRE_LIMIT
    )
    try:
        writer.write(wire.encode_request(request))
        message = await asyncio.wait_for(wire.read_message(reader),
                                         TIMEOUT_S)
    finally:
        writer.close()
        await writer.wait_closed()
    if not isinstance(message, wire.Frame):
        raise RuntimeError(f"non-frame answer {message!r}")
    return wire.decode_response(message)


def ask(port: int, request: dict) -> dict:
    return wire.run(_ask(port, request))


WARM_REQUEST = {
    "op": "distance", "network": SPEC,
    "pairs": [["12345678", "87654321"]], "id": 0,
}


def start_server(traced: bool):
    """A started server and its set-up time (spawn to first answer)."""
    server = Server(traced)
    try:
        answer = ask(server.port, WARM_REQUEST)
        setup_s = time.perf_counter() - server.spawned
        if not answer.get("ok"):
            raise RuntimeError(f"warm-up request failed: {answer}")
    except BaseException:
        server.stop()
        raise
    return server, setup_s


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


async def _drive(port: int, windows, latency, done, ok, kept) -> None:
    clock = time.perf_counter
    pending = iter(windows)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=wire.WIRE_LIMIT
        )
        try:
            for ids, payload in pending:
                sent = clock()
                writer.write(payload)
                for _ in ids:
                    message = await asyncio.wait_for(
                        wire.read_message(reader), TIMEOUT_S
                    )
                    now = clock()
                    if not isinstance(message, wire.Frame) \
                            or not message.has_id:
                        raise RuntimeError(f"bad answer {message!r}")
                    rid = message.request_id
                    latency[rid] = now - sent
                    done[rid] = now
                    ok[rid] = bool(message.flags & wire.FLAG_OK)
                    if rid in kept:
                        kept[rid] = message
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))


def session(server: Server, frames, keep) -> dict:
    """Send the whole stream through ``server``; per-request timings."""
    count = len(frames)
    windows = [
        (range(lo, min(lo + WINDOW, count)),
         b"".join(frames[lo:lo + WINDOW]))
        for lo in range(0, count, WINDOW)
    ]
    latency = np.full(count, np.nan)
    done = np.full(count, np.nan)
    ok = np.zeros(count, dtype=bool)
    kept = dict.fromkeys(keep)
    cpu0, client0 = server.cpu_seconds(), time.process_time()
    start = time.perf_counter()
    wire.run(_drive(server.port, windows, latency, done, ok, kept))
    wall = time.perf_counter() - start
    server_cpu = server.cpu_seconds() - cpu0
    client_cpu = time.process_time() - client0
    return {
        "wall": wall, "latency": latency, "ok": ok, "kept": kept,
        "done": done - start,
        "server_cpu": server_cpu, "client_cpu": client_cpu,
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_answers(kept, ops, sampled) -> dict:
    """Sampled answers against the compiled oracle: equal distances,
    and every route word walks from source to target in exactly the
    oracle distance.  Returns the problems found, by request id."""
    from repro.core.permutations import Permutation
    from repro.networks import make_network

    net = make_network(SPEC["family"], l=SPEC["l"], n=SPEC["n"])
    compiled = net.compiled()
    problems = defaultdict(list)
    for rid, message in kept.items():
        if message is None:
            problems[rid].append(f"request {rid}: no answer kept")
            continue
        result = wire.decode_response(message).get("result") or {}
        request_pairs = sampled[rid]
        nodes = [
            (Permutation(map(int, s)), Permutation(map(int, t)))
            for s, t in request_pairs
        ]
        expected = [compiled.distance(s, t) for s, t in nodes]
        if ops[rid] != ROUTE:
            if result.get("distances") != expected:
                problems[rid].append(
                    f"request {rid}: distances {result.get('distances')} "
                    f"!= oracle {expected}"
                )
            continue
        routes = result.get("routes") or []
        if len(routes) != len(nodes):
            problems[rid].append(f"request {rid}: {len(routes)} routes")
            continue
        for (source, target), route, hops, pair in zip(
                nodes, routes, expected, request_pairs):
            node = source
            for dim in route["word"]:
                node = node * net.generators[dim].perm
            if node != target or len(route["word"]) != hops \
                    or [route["source"], route["target"]] != pair:
                problems[rid].append(
                    f"request {rid}: route {route['word']} from {pair[0]} "
                    f"to {pair[1]} is not a {hops}-hop path"
                )
    return problems


def check_accounting(stats: dict, sent: int) -> list:
    """The server's ``stats`` op must close and agree with the client:
    the stream, the warm-up request and this stats request itself."""
    problems = []
    answered = stats["completed"] + stats["rejected"] \
        + stats["timeouts"] + stats["malformed"]
    if not stats["closed"] or stats["received"] != answered:
        problems.append(f"server accounting open: {stats}")
    if stats["received"] != sent + 2 or stats["completed"] != sent + 2:
        problems.append(
            f"server received {stats['received']}, completed "
            f"{stats['completed']}; client sent {sent} + 2"
        )
    return problems


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Exact ``q``-th percentile (inclusive interpolation)."""
    return float(np.percentile(np.asarray(values), q))


def segment_medians(done, latency_ms):
    """Throughput, p50 and p90 latency of the session: the stream is cut
    into ``SEGMENTS`` runs of equal request count in completion order,
    and each figure is the median over segments of that segment's
    exact value, so a few seconds of a slowed host do not move it."""
    order = np.argsort(done)
    cuts = np.linspace(0, order.size, SEGMENTS + 1).astype(int)
    rates, p50s, p90s = [], [], []
    start = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        ids = order[lo:hi]
        end = done[order[hi - 1]]
        rates.append((hi - lo) / (end - start))
        start = end
        p50s.append(percentile(latency_ms[ids], 50))
        p90s.append(percentile(latency_ms[ids], 90))
    return (statistics.median(rates), statistics.median(p50s),
            statistics.median(p90s))


def measure(server: Server, frames, ops, sampled, traced: bool):
    """One session plus its checks and per-layer numbers; stops the
    server."""
    count = len(frames)
    try:
        before = server.layer_totals() if traced else None
        run = session(server, frames, sampled)
        after = server.layer_totals() if traced else None
        stats = ask(server.port, {"op": "stats", "id": 0})["result"]
        peak = server.peak_rss_mib()
    finally:
        code = server.stop()

    wrong = check_answers(run["kept"], ops, sampled)
    problems = [p for found in wrong.values() for p in found]
    problems += check_accounting(stats, count)
    seen = ~np.isnan(run["latency"])
    answered = int(np.count_nonzero(seen))
    failed = count - int(np.count_nonzero(run["ok"])) + len(wrong)
    if answered != count:
        problems.append(f"{count - answered} of {count} requests unanswered")
    if failed > len(wrong):
        problems.append(f"{failed - len(wrong)} of {count} requests "
                        "not answered ok")
    if code != 0:
        problems.append(f"server exited with {code}")
    latency_ms = run["latency"] * 1000.0
    rate, p50, p90 = segment_medians(run["done"][seen], latency_ms[seen])
    result = {
        "peak": peak, "failed": failed, "problems": problems,
        "throughput": rate, "p50_ms": p50, "p90_ms": p90,
    }
    cache = stats.get("cache", {})
    lookups = cache.get("hot_hits", 0) + cache.get("hot_misses", 0)
    layers = {
        "serve.server_cpu_us_per_req": run["server_cpu"] / count * 1e6,
        "serve.server_busy_frac": run["server_cpu"] / run["wall"],
        "serve.client_cpu_us_per_req": run["client_cpu"] / count * 1e6,
        "serve.distance_p50_ms": percentile(
            latency_ms[ops != ROUTE], 50),
        "serve.route_p50_ms": percentile(latency_ms[ops == ROUTE], 50),
        # the stream and the warm-up request went through the batcher
        "serve.mean_batch": (count + 1) / max(stats["batches"], 1),
        "serve.hot_hit_ratio": cache.get("hot_hits", 0) / max(lookups, 1),
        "serve.cache_evictions": cache.get("evictions", 0),
    }
    if traced:
        per_request = {
            name: (after[name][0] - before[name][0]) / count * 1e6
            for name in ("decode", "engine", "encode")
        }
        for name, value in per_request.items():
            layers[f"serve.{name}_us"] = value
        layers["serve.loop_self_us"] = \
            layers["serve.server_cpu_us_per_req"] - sum(per_request.values())
        if layers["serve.loop_self_us"] < 0:
            problems.append("decode + engine + encode exceed server CPU")
    result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    step = WINDOW * CONNECTIONS
    count = max(step, int(args.seconds * STREAM_RPS) // step * step)
    ops, frames, sampled = make_stream(args.seed, count)

    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        server, setup_s = start_server(traced=False)
        setups.append(setup_s)
        server.stop()
    server, setup_s = start_server(traced=False)
    setups.append(setup_s)
    plain = measure(server, frames, ops, sampled, traced=False)
    problems = list(plain["problems"])
    failed = plain["failed"]
    attempted = count
    report = {
        "problems": problems,
        "setup_s": statistics.median(setups),
        # the stream is fixed work: its time at the median segment rate
        "run_s": count / plain["throughput"],
        "peak_rss_mib": plain["peak"],
        "throughput_rps": plain["throughput"],
        "p50_ms": plain["p50_ms"],
        "p90_ms": plain["p90_ms"],
    }
    if args.trace:
        server, _ = start_server(traced=True)
        traced = measure(server, frames, ops, sampled, traced=True)
        problems += traced["problems"]
        failed += traced["failed"]
        attempted += count
        report["layers"] = dict(traced["layers"])
        report["layers"]["bench.trace_overhead_pct"] = (
            plain["throughput"] / traced["throughput"] - 1.0
        ) * 100.0
    report["attempted"] = attempted
    report["failed"] = failed
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
