"""Exporters: JSON-lines traces, metrics snapshots, summary tables.

Follows :mod:`repro.io`'s conventions — plain JSON, ``indent=1``,
``pathlib`` paths — so trace and metrics artefacts sit next to saved
schedules and embeddings.  The JSON-lines trace format (one span object
per line, ``parent_id`` links forming the tree) is documented in
docs/observability.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .histogram import LogHistogram
from .metrics import MetricsRegistry, _key
from .tracer import Span


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per line, in span-start order."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )


def write_spans_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> int:
    """Write the JSON-lines trace; returns the number of spans."""
    spans = list(spans)
    Path(path).write_text(spans_to_jsonl(spans))
    return len(spans)


def read_spans_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSON-lines trace back as a list of span dicts."""
    out: List[Dict[str, object]] = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


def save_metrics_snapshot(
    registry: MetricsRegistry, path: Union[str, Path]
) -> None:
    """Persist ``registry.snapshot()`` as JSON (repro.io style)."""
    Path(path).write_text(json.dumps(registry.snapshot(), indent=1))


def load_metrics_snapshot(path: Union[str, Path]) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def merge_metrics_snapshots(
    snapshots: Sequence[Dict[str, object]],
    extra_labels: Optional[Sequence[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Merge per-process metric snapshots into one snapshot dict.

    This is the cluster-wide aggregation primitive: the shard pool
    merges worker snapshots with ``{"shard": i}`` extras, the router
    merges replica snapshots with ``{"replica": name}`` extras.  The
    ``i``-th entry of ``extra_labels`` (when given) is layered onto
    every series of the ``i``-th snapshot *before* merging, so sources
    stay distinguishable; series whose final label sets match merge by
    value — counters add, gauges last-write-wins, histograms vector-add
    their buckets (:meth:`LogHistogram.merge`).

    Output ordering is deterministic: names sorted, series sorted by
    canonical label key — merging the same snapshots twice yields
    byte-identical JSON.
    """
    if extra_labels is not None and len(extra_labels) != len(snapshots):
        raise ValueError(
            f"extra_labels has {len(extra_labels)} entries for "
            f"{len(snapshots)} snapshots"
        )
    counters: Dict[str, Dict[tuple, float]] = {}
    gauges: Dict[str, Dict[tuple, float]] = {}
    histograms: Dict[str, Dict[tuple, LogHistogram]] = {}

    def final_labels(entry, extra):
        labels = dict(entry.get("labels") or {})
        if extra:
            labels.update(extra)
        return _key(labels)

    for i, snap in enumerate(snapshots):
        extra = extra_labels[i] if extra_labels else None
        for name, entries in (snap.get("counters") or {}).items():
            target = counters.setdefault(name, {})
            for entry in entries:
                key = final_labels(entry, extra)
                target[key] = target.get(key, 0) + entry["value"]
        for name, entries in (snap.get("gauges") or {}).items():
            target = gauges.setdefault(name, {})
            for entry in entries:
                target[final_labels(entry, extra)] = entry["value"]
        for name, entries in (snap.get("histograms") or {}).items():
            hists = histograms.setdefault(name, {})
            for entry in entries:
                key = final_labels(entry, extra)
                incoming = LogHistogram.from_dict(entry)
                if key in hists:
                    hists[key].merge(incoming)
                else:
                    hists[key] = incoming

    def hist_row(key, hist):
        row: Dict[str, object] = {"labels": dict(key)}
        row.update(hist.to_dict())
        row["mean"] = hist.mean
        row["p50"] = hist.percentile(50.0)
        row["p99"] = hist.percentile(99.0)
        return row

    return {
        "counters": {
            name: [
                {"labels": dict(key), "value": value}
                for key, value in sorted(series.items())
            ]
            for name, series in sorted(counters.items())
        },
        "gauges": {
            name: [
                {"labels": dict(key), "value": value}
                for key, value in sorted(series.items())
            ]
            for name, series in sorted(gauges.items())
        },
        "histograms": {
            name: [
                hist_row(key, hist)
                for key, hist in sorted(series.items())
            ]
            for name, series in sorted(histograms.items())
        },
    }


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value)) if isinstance(value, float) else str(value)


def render_metrics_table(registry: MetricsRegistry) -> str:
    """Human-readable ``name{labels}  value`` table of every series."""
    snap = registry.snapshot()
    rows: List[tuple] = []
    for name, entries in snap["counters"].items():
        for e in entries:
            rows.append((name + _format_labels(e["labels"]),
                         _format_value(e["value"])))
    for name, entries in snap["gauges"].items():
        for e in entries:
            rows.append((name + _format_labels(e["labels"]),
                         _format_value(e["value"])))
    for name, entries in snap["histograms"].items():
        for e in entries:
            rows.append((
                name + _format_labels(e["labels"]),
                f"count={e['count']} mean={e['mean']:.2f} "
                f"min={_format_value(e['min'])} "
                f"max={_format_value(e['max'])}",
            ))
    if not rows:
        return "metrics: no series recorded"
    width = max(len(series) for series, _ in rows)
    lines = ["metrics", "-" * max(width + 10, 7)]
    for series, value in rows:
        lines.append(f"{series.ljust(width)}  {value}")
    return "\n".join(lines)


def span_summary(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name ``{calls, total_s, mean_s, min_s, max_s}`` over the
    closed ``spans`` (open ones are skipped), hottest total first."""
    durations: Dict[str, List[float]] = {}
    for span in spans:
        if span.end is not None:
            durations.setdefault(span.name, []).append(span.duration)
    rows = {}
    for name, times in durations.items():
        total = sum(times)
        rows[name] = {
            "calls": len(times),
            "total_s": total,
            "mean_s": total / len(times),
            "min_s": min(times),
            "max_s": max(times),
        }
    return dict(sorted(rows.items(), key=lambda kv: -kv[1]["total_s"]))


def render_span_table(spans: Iterable[Span]) -> str:
    """Human-readable :func:`span_summary` (calls, total, mean and max
    per span name), hottest first — the ``--profile`` table."""
    rows = span_summary(spans)
    if not rows:
        return "profile: no spans recorded"
    width = max(len(name) for name in rows)
    lines = [
        f"{'span'.ljust(width)}  {'calls':>7}  {'total':>10}  "
        f"{'mean':>10}  {'max':>10}",
        "-" * (width + 45),
    ]
    for name, s in rows.items():
        lines.append(
            f"{name.ljust(width)}  {s['calls']:>7}  "
            f"{s['total_s']:>9.4f}s  {s['mean_s']:>9.4f}s  "
            f"{s['max_s']:>9.4f}s"
        )
    return "\n".join(lines)
