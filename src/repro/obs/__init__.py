"""Observability: span tracing and labeled metrics.

The paper's claims are quantitative (rounds, traffic, makespans), so the
library instruments itself: the simulator, routers, schedulers, BFS
kernels and experiment sweeps emit spans and metrics through the
process-global tracer/registry defined here.  Both default to no-ops —
``repro --metrics/--trace-out/--profile`` (or :func:`use_tracer` etc.)
switch on collection for a region of code; ``--profile`` summarises the
tracer's spans per name (:func:`span_summary`).

The serving/cluster stack additionally uses the *distributed* half of
the layer: wire-level trace propagation (:mod:`.propagate`), bounded
mergeable histograms (:mod:`.histogram`), cross-process trace assembly
(:mod:`.collector`), and per-process flight recorders (:mod:`.flight`).
See docs/observability.md.
"""

from .tracer import (
    NoopTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    traced,
    use_tracer,
)
from .metrics import (
    Counter,
    DEFAULT_MAX_LABEL_SETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    OVERFLOW_KEY,
    get_registry,
    set_registry,
    use_registry,
)
from .histogram import LogHistogram
from .propagate import (
    RemoteSpan,
    SpanBuffer,
    TRACE_FIELD,
    TraceContext,
    extract,
    get_span_buffer,
    inject,
    new_span_id,
    new_trace_id,
    reset_span_buffer,
    start_span,
    strip,
)
from .collector import (
    TraceCollector,
    find_span,
    parentage_path,
    read_trace_trees,
    span_names,
    write_trace_trees,
)
from .flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    dump_flight,
    get_flight_recorder,
    record_event,
    reset_flight_recorder,
)
from .export import (
    merge_metrics_snapshots,
    read_spans_jsonl,
    render_metrics_table,
    render_span_table,
    save_metrics_snapshot,
    load_metrics_snapshot,
    span_summary,
    spans_to_jsonl,
    write_spans_jsonl,
)

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "traced",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_KEY",
    "get_registry",
    "set_registry",
    "use_registry",
    "LogHistogram",
    "TraceContext",
    "RemoteSpan",
    "SpanBuffer",
    "TRACE_FIELD",
    "extract",
    "inject",
    "start_span",
    "strip",
    "new_span_id",
    "new_trace_id",
    "get_span_buffer",
    "reset_span_buffer",
    "TraceCollector",
    "span_names",
    "find_span",
    "parentage_path",
    "write_trace_trees",
    "read_trace_trees",
    "FlightRecorder",
    "FLIGHT_DIR_ENV",
    "get_flight_recorder",
    "reset_flight_recorder",
    "record_event",
    "dump_flight",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "save_metrics_snapshot",
    "load_metrics_snapshot",
    "merge_metrics_snapshots",
    "render_metrics_table",
    "span_summary",
    "render_span_table",
]
