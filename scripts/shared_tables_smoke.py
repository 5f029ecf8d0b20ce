"""CI shared-tables smoke: a 4-worker shard pool with shared tables
must answer byte-identically to a private engine, close its accounting,
and leave **nothing** behind in ``/dev/shm`` after drain — including
when one worker is crashed mid-run.  A second 4-worker pool given only
a table-cache directory must do the same through the mmap'd store,
leaving exactly that store in the directory.

Run with ``PYTHONPATH=src python scripts/shared_tables_smoke.py``;
exits non-zero with a message on the first violated assertion.
"""

import glob
import os
import sys
import tempfile

from repro.core import tablestore
from repro.serve import QueryEngine
from repro.serve.shard import ShardPool

SPEC = {"family": "MS", "l": 2, "n": 3}

REQUESTS = [
    {"op": "distance", "network": SPEC,
     "pairs": [["1234567", "2134567"], ["1234567", "7654321"]]},
    {"op": "route", "network": SPEC,
     "pairs": [["1234567", "3214567"]]},
    {"op": "neighbors", "network": SPEC, "nodes": ["1234567"]},
    {"op": "properties", "network": SPEC},
]


def check(condition, message):
    if not condition:
        print(f"shared-tables smoke FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def leftover_segments():
    return sorted(glob.glob("/dev/shm/repro_*"))


def main():
    check(not leftover_segments(),
          f"pre-existing segments: {leftover_segments()}")
    expected = [QueryEngine().execute(dict(r)) for r in REQUESTS]

    pool = ShardPool(num_shards=4, shared_tables=True)
    modes = pool.prepare_shared_tables([SPEC])
    check(modes.get("MS(2,3)") == "create",
          f"parent pre-warm did not create the store: {modes}")
    with pool:
        responses = pool.execute_many([dict(r) for r in REQUESTS])
        check(responses == expected,
              "shared-tables responses diverge from the private engine")
        # crash one worker mid-run: restart + reconciliation must not
        # disturb segment ownership
        pool.execute_many([{"op": "_crash", "network": SPEC,
                            "delay": 0.1}])
        responses = pool.execute_many([dict(r) for r in REQUESTS])
        check(responses == expected,
              "responses diverge after a worker crash/restart")
        stats = pool.stats()
        check(stats["closed"], f"accounting did not close: {stats}")
        check(stats["restarts"] >= 1, f"crash did not restart: {stats}")
    check(not tablestore.list_host_segments(),
          f"pool drain leaked segments: {tablestore.list_host_segments()}")
    check(not leftover_segments(),
          f"leftover /dev/shm entries: {leftover_segments()}")

    with tempfile.TemporaryDirectory() as cache:
        with ShardPool(num_shards=4, table_cache=cache) as pool:
            responses = pool.execute_many([dict(r) for r in REQUESTS])
            check(responses == expected,
                  "table-cache responses diverge from the private engine")
            dir_stats = pool.stats()
            check(dir_stats["closed"],
                  f"table-cache accounting did not close: {dir_stats}")
        check(os.listdir(cache) == ["MS(2,3).tables"],
              f"table cache holds {os.listdir(cache)}")
    check(not leftover_segments(),
          f"table-cache pool left /dev/shm entries: {leftover_segments()}")
    print("shared-tables smoke OK: 4-worker pools byte-identical "
          f"(shared memory: {stats['submitted']} requests, table cache: "
          f"{dir_stats['submitted']} requests) closed, /dev/shm clean")


if __name__ == "__main__":
    main()
