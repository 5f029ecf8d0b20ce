"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's results (a theorem,
corollary, or Figure 1 panel), asserts the claim's shape, and writes the
paper-style rows to ``benchmarks/results/<name>.txt`` so the output
survives pytest's stdout capture.  EXPERIMENTS.md indexes those files.

The session also runs under a live :mod:`repro.obs` stack — tracer and
metrics registry — so alongside each text table the harness emits
machine-readable artefacts:

* ``BENCH_<name>.json`` — the table rows as a JSON list per benchmark;
* ``BENCH_trace.jsonl`` — the full span trace of the session;
* ``BENCH_obs.json`` — the metrics snapshot + the per-name span summary
  (:func:`repro.obs.span_summary`, the ``--profile`` table's rows).
"""

import json
import pathlib

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    span_summary,
    use_registry,
    use_tracer,
    write_spans_jsonl,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def obs_stack():
    """Attach a real tracer/registry for the whole benchmark session;
    export the machine-readable artefacts at teardown."""
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        yield tracer, registry
    RESULTS_DIR.mkdir(exist_ok=True)
    write_spans_jsonl(tracer.spans, RESULTS_DIR / "BENCH_trace.jsonl")
    (RESULTS_DIR / "BENCH_obs.json").write_text(json.dumps({
        "spans": len(tracer.spans),
        "metrics": registry.snapshot(),
        "profile": span_summary(tracer.spans),
    }, indent=1))


@pytest.fixture(scope="session")
def report():
    """``report(name, lines)`` — persist and echo a result table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, lines):
        lines = [str(line) for line in lines]
        text = "\n".join(lines) + "\n"
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps({"name": name, "lines": lines}, indent=1)
        )
        print(f"\n=== {name} ===")
        print(text)

    return _report
