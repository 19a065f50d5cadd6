"""Thread-safe LRU cache for query results.

The batch service memoizes :class:`~repro.baselines.interface.AlgorithmResult`
objects keyed by ``(source, target, (τb, τe), algorithm)``.  Results are
immutable (:class:`~repro.core.result.PathGraph` is a frozen dataclass over
frozen sets), so sharing one cached object between callers is safe.

The implementation is a classic ``OrderedDict`` LRU guarded by a lock — the
serving tier's threads hit a :class:`~repro.service.service.TspgService`'s
cache concurrently — with hit/miss/eviction counters surfaced through
:class:`CacheStats` for the throughput benchmark and the CLI.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Optional, Tuple, TypeVar

Value = TypeVar("Value")

#: Cache key: ``(source, target, (τb, τe), algorithm name, graph epoch)``.
#: The epoch stamp guarantees entries computed over an older edge set can
#: never satisfy a lookup issued after the graph mutated.
CacheKey = Tuple[Hashable, ...]


@dataclass
class CacheStats:
    """Counters describing the life of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "hit_rate": round(self.hit_rate, 3),
        }


class ResultCache(Generic[Value]):
    """A bounded, thread-safe, least-recently-used mapping.

    Parameters
    ----------
    max_size:
        Maximum number of entries; the least recently *used* entry is evicted
        first.  ``0`` disables the cache entirely (every lookup misses and
        stores are dropped), which lets callers keep one code path.
    """

    def __init__(self, max_size: int = 1024) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self._max_size = max_size
        self._entries: "OrderedDict[CacheKey, Value]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_size(self) -> int:
        """Configured capacity (``0`` means disabled)."""
        return self._max_size

    @property
    def enabled(self) -> bool:
        """``True`` when the cache can hold at least one entry."""
        return self._max_size > 0

    def get(self, key: CacheKey) -> Optional[Value]:
        """Return the cached value or ``None``, updating recency and counters."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: CacheKey, value: Value) -> None:
        """Store ``value``, evicting the least recently used entry when full."""
        if not self.enabled:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            if len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: CacheKey) -> bool:
        """Membership probe: counts no hit or miss and keeps LRU order.

        Lock-free, so an event loop can probe while worker threads hold
        the lock: one dict lookup is atomic under the GIL, and
        :meth:`rekey` publishes its rewritten dict in one assignment.
        """
        return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def rekey(self, transform) -> int:
        """Rewrite every key through ``transform``; returns entries dropped.

        ``transform(key)`` returns the replacement key, or ``None`` to drop
        the entry.  LRU recency order is preserved for the survivors.  This
        is the delta-aware invalidation primitive: an append that provably
        cannot change a cached query's answer lets the service carry the
        entry across the epoch bump (re-keyed to the new warmed epoch)
        instead of discarding the whole cache.
        """
        dropped = 0
        with self._lock:
            rewritten: "OrderedDict[CacheKey, Value]" = OrderedDict()
            for key, value in self._entries.items():
                new_key = transform(key)
                if new_key is None:
                    dropped += 1
                    continue
                rewritten[new_key] = value
            self._entries = rewritten
            self._evictions += dropped
        return dropped

    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self._max_size,
            )
