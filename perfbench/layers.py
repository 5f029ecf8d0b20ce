"""Per-layer timing for the traced benchmark run, from outside ``src/``.

Nothing in the package is edited: a :class:`Timeline` replaces public
functions with timing wrappers (module attributes the callers look up at
call time, or class attributes reached through instances) and also reads
the spans the package already emits through ``repro.obs.use_tracer``.
Every wrapped call and span lands as one ``(category, start, end)``
interval on the ``time.perf_counter`` clock, so layer busy times are
unions of intervals and a parent's self time is its busy time minus the
child intervals it contains.

The untraced runs never import this module.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple

Interval = Tuple[str, float, float]


def _merge(spans: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Overlapping ``(start, end)`` pairs merged into disjoint ones."""
    merged: List[List[float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(spans: Iterable[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in spans)


class Timeline:
    """Timing intervals of wrapped calls and recorded spans."""

    def __init__(self) -> None:
        self.intervals: List[Interval] = []

    # -- recording ------------------------------------------------------

    def wrap(self, category: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded under ``category``."""
        intervals = self.intervals
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((category, start, clock()))

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", category)
        return timed

    def patch(self, owner, name: str, category: str) -> None:
        """Replace ``owner.name`` (a module function, a method, or a
        classmethod) with its timed version."""
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            setattr(owner, name,
                    classmethod(self.wrap(category, original.__func__)))
        else:
            setattr(owner, name, self.wrap(category, original))

    def add_spans(self, spans, names: Dict[str, str]) -> None:
        """Record finished tracer spans whose name is a key of
        ``names`` under the mapped category."""
        for span in spans:
            category = names.get(span.name)
            if category is not None and span.end is not None:
                self.intervals.append((category, span.start, span.end))

    # -- reading --------------------------------------------------------

    def spans_of(self, category: str) -> List[Tuple[float, float]]:
        return _merge(
            (start, end) for cat, start, end in self.intervals
            if cat == category
        )

    def busy(self, category: str) -> float:
        """Seconds during which at least one ``category`` call ran."""
        return _length(self.spans_of(category))

    def calls(self, category: str) -> int:
        return sum(1 for cat, _, _ in self.intervals if cat == category)

    def busy_within(self, category: str, outer: str) -> float:
        """Seconds of ``category`` that fall inside ``outer`` calls."""
        outer_spans = self.spans_of(outer)
        total = 0.0
        for start, end in self.spans_of(category):
            for lo, hi in outer_spans:
                total += max(0.0, min(end, hi) - max(start, lo))
        return total

    def overlap(self, categories: Iterable[str]) -> float:
        """Seconds during which two of ``categories`` ran at once — zero
        when their busy times are disjoint and may be summed."""
        spans = [
            span for category in categories
            for span in self.spans_of(category)
        ]
        return _length(spans) - _length(_merge(spans))
