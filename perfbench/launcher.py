"""``repro serve`` with its wire codec and engine batch call timed.

    python perfbench/launcher.py [repro serve arguments...]

The traced ``serve_mixed`` session starts the server through this file
instead of ``python -m repro serve``.  It replaces three attributes the
server reaches at call time — ``wire.decode_request``,
``wire.encode_response`` and ``QueryEngine.execute_many`` — with
wrappers that add up the calling thread's CPU time, runs the unchanged
command, and prints one stderr line ``PERFBENCH_LAYERS {json}``,
mapping each name to ``[cpu_seconds, calls]`` so far, on SIGUSR1 and
after the graceful shutdown.
"""

import json
import signal
import sys
import time

from repro.cli import main
from repro.serve import wire
from repro.serve.engine import QueryEngine

TOTALS = {"decode": [0.0, 0], "engine": [0.0, 0], "encode": [0.0, 0]}


def timed(name, fn):
    """``fn`` with its thread CPU time added to ``TOTALS[name]``.  Each
    name is only ever called from one thread at a time: the codec on
    the event loop, the engine from the batch loop's awaited executor
    call."""
    slot = TOTALS[name]
    clock = time.thread_time

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            slot[0] += clock() - start
            slot[1] += 1

    return wrapper


def report(*_signal) -> None:
    print("PERFBENCH_LAYERS " + json.dumps(TOTALS), file=sys.stderr,
          flush=True)


if __name__ == "__main__":
    wire.decode_request = timed("decode", wire.decode_request)
    wire.encode_response = timed("encode", wire.encode_response)
    QueryEngine.execute_many = timed("engine", QueryEngine.execute_many)
    signal.signal(signal.SIGUSR1, report)
    code = main(["serve"] + sys.argv[1:])
    report()
    sys.exit(code)
