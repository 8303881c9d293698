"""A small thread-safe LRU map with hit/miss accounting.

One pattern — lock-guarded :class:`~collections.OrderedDict`,
``move_to_end`` on access, ``popitem(last=False)`` eviction, hit/miss
counters — shared by the service query cache, the recommender's
spatial-profile cache and the as-of reconstruction cache.  Every owner
keeps it in its own heap: a pool worker's query cache holds the answers
that worker computed, never another's.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.concurrency import make_lock

__all__ = ["ThreadSafeLRU"]


class ThreadSafeLRU:
    """Bounded ``key -> value`` map with LRU eviction, safe across threads."""

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._lock = make_lock("ThreadSafeLRU._lock")
        # guarded-by: _lock
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> object | None:
        """The cached value (refreshed as most-recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Store a value, evicting least-recently-used entries beyond the
        bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def values(self) -> list[object]:
        """The cached values, least recently used first; counts no hit
        or miss."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
