"""A lock-guarded bounded LRU cache with hit/miss/eviction counters.

One implementation backs every long-lived registry that used to grow (or
race) unboundedly: the per-profile range tables
(``repro.core.ranges._TABLES``), the planner service's canonical
plan cache, and the :class:`~repro.core.partition.SolverContextPool`.
Serving workloads run for days over arbitrary client-supplied profiles, so
every cache in the hot path must be bounded and observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable


class LRUCache:
    """Bounded least-recently-used map.

    Every operation takes one internal lock, so concurrent readers and
    writers are safe; :meth:`get_or_create` additionally guarantees that a
    given key's factory runs at most once per residency (the build happens
    under the lock — factories must be cheap relative to contention, which
    holds for every use in this repo).

    ``capacity`` bounds the entry count: inserting into a full cache evicts
    the least-recently-used entry (``stats()["evictions"]`` counts them).
    ``capacity=0`` disables the cache entirely — every ``get`` misses and
    every ``put`` is dropped — which is how the perf harness builds its
    cold-path planner service.
    """

    def __init__(self, capacity: int = 128, name: str = ""):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.name = name
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most-recently-used)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __setitem__(self, key: Hashable, value: Any) -> None:
        """Dict-style alias of :meth:`put` (lets an LRU stand in for a
        plain dict in memoization code)."""
        self.put(key, value)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Cached value for ``key``, building it with ``factory`` on miss.

        The factory runs under the cache lock, so two threads racing on the
        same key never build twice (and always observe the same object).
        With ``capacity=0`` the factory runs every call and nothing is
        retained.
        """
        if self.capacity == 0:
            self._misses += 1
            return factory()
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                value = factory()
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """LRU-to-MRU snapshot of the resident keys."""
        with self._lock:
            return list(self._entries)

    def values(self):
        """LRU-to-MRU snapshot of the resident values."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (counters are kept — they tell the full story)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: capacity/entries/hits/misses/evictions."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "name": self.name,
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / total) if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"LRUCache({self.name!r}, {s['entries']}/{s['capacity']} entries, "
            f"{s['hits']} hits / {s['misses']} misses / "
            f"{s['evictions']} evictions)"
        )
