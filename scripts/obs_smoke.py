"""CI observability smoke: a 3-replica mini-loadgen at 100% trace
sampling, once over newline JSON and once over binary frames, must
yield one merged trace tree per request whose parentage crosses
router -> server -> shard (a real OS process boundary), and
``repro top --once`` must render a live cluster.

Run with ``PYTHONPATH=src python scripts/obs_smoke.py``; exits non-zero
with a message on the first violated assertion.
"""

import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.cluster import ClusterManager
from repro.io import network_spec
from repro.networks import make_network
from repro.obs import parentage_path, read_trace_trees
from repro.serve import make_workload, run_loadgen

FULL_CHAIN = [
    "client.request",
    "router.route",
    "server.request",
    "shard.execute",
    "engine.execute",
]


def check(condition, message):
    if not condition:
        print(f"obs smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def smoke_trace_trees(trees_path, protocol):
    code = main([
        "loadgen", "MS", "--l", "2", "--n", "2",
        "--cluster", "3", "--cluster-shards", "1",
        "--count", "24", "--batch", "4",
        "--trace-sample", "1.0", "--protocol", protocol,
        "--trace-trees", str(trees_path), "--json",
    ])
    check(code == 0, f"loadgen exited {code}")
    trees = read_trace_trees(trees_path)
    check(len(trees) == 6, f"expected 6 trace trees, got {len(trees)}")
    for tree in trees:
        check(tree["orphans"] == 0, f"orphan spans in {tree['trace_id']}")
        path = parentage_path(tree, "engine.execute")
        check(
            path == FULL_CHAIN,
            f"trace {tree['trace_id']} parentage {path} != {FULL_CHAIN}",
        )
        check(
            len(tree["pids"]) == 2,
            f"trace {tree['trace_id']} spans {tree['pids']} — expected "
            "2 pids (client/router/server + shard worker)",
        )
    print(f"trace smoke ok ({protocol}): {len(trees)} trees, "
          f"chain {'->'.join(FULL_CHAIN)}")


def smoke_top():
    net = make_network("MS", l=2, n=2)
    spec = {k: v for k, v in network_spec(net).items()}
    requests = make_workload(
        "uniform", spec, k=net.k, count=16, seed=3, batch=4,
    )
    with ClusterManager(replicas=3, warm_specs=(spec,)) as cluster:
        result = run_loadgen(cluster.host, cluster.port, requests)
        check(result.closed, "loadgen accounting did not close")
        code = main([
            "top", "--host", cluster.host, "--port", str(cluster.port),
            "--once",
        ])
    check(code == 0, f"repro top --once exited {code}")
    print("top smoke ok: dashboard rendered against a live 3-replica cluster")


def run():
    with tempfile.TemporaryDirectory() as tmp:
        for protocol in ("json", "binary"):
            smoke_trace_trees(Path(tmp) / f"trees-{protocol}.jsonl", protocol)
    smoke_top()
    print("obs smoke passed")


if __name__ == "__main__":
    run()
