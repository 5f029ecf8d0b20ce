"""A bounded least-recently-used cache with eviction metrics.

Long-running serving processes (:mod:`repro.serve`) cache expensive
per-key artefacts — warm :class:`~repro.core.compiled.CompiledGraph`
backends, embeddings — whose working set is small but whose key space
is unbounded (every network spec is a potential key).
:class:`LRUCache` bounds them: at most ``capacity`` entries, evicting
the least recently *used* entry first, and reporting each eviction both
on :attr:`LRUCache.evictions` and (when a metrics registry is
installed) on a labelled counter, conventionally
``serve.table_evictions``.  Occupancy is the owner's to report: the
serve engine publishes its caches' sizes once per batch as
``serve.cache_entries``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, TypeVar

from ..obs import get_registry

K = TypeVar("K")
V = TypeVar("V")

#: the conventional eviction counter (docs/observability.md); each
#: cache distinguishes itself with a ``cache=<name>`` label.
EVICTION_METRIC = "serve.table_evictions"


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``capacity`` must be at least 1.  ``metric`` names the counter that
    eviction events increment (``None`` disables metric emission); the
    remaining keyword labels are attached to every increment so several
    caches can share one counter, e.g.::

        LRUCache(8, metric=EVICTION_METRIC, cache="serve-graphs")

    Reads (:meth:`get` / :meth:`get_or_create` / ``in``) refresh
    recency; :attr:`evictions` counts entries dropped over the cache's
    lifetime regardless of whether metrics are enabled.
    """

    def __init__(
        self,
        capacity: int,
        metric: Optional[str] = None,
        **labels: str,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metric = metric
        self.labels: Dict[str, str] = dict(labels)
        self.evictions = 0
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def get(self, key: K) -> Optional[V]:
        """The cached value (refreshing recency), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert or overwrite; evicts the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self.metric is not None:
                get_registry().counter(self.metric).inc(1, **self.labels)

    def values(self) -> Iterator[V]:
        """Iterate cached values without touching recency (accounting
        walks, e.g. summing warm-graph table bytes, must not reorder
        the eviction queue)."""
        return iter(list(self._entries.values()))

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """The cached value, or ``factory()`` inserted and returned."""
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        self._entries.clear()

    def __repr__(self) -> str:
        name = self.labels.get("cache", "lru")
        return (
            f"<LRUCache {name}: {len(self._entries)}/{self.capacity} "
            f"entries, {self.evictions} evictions>"
        )
