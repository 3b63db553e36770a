"""Bounded-LRU stores for the planner/partitioner memo caches.

All the memo stores in this package (DP Pareto tables, partition plans,
simulate-and-fill results, timelines, prefix-time arrays) follow the
same policy: move an entry to the back on hit, evict the least recently
used on insert at capacity.  One implementation here keeps the copies
from drifting.

Two store classes serve :class:`~repro.core.caches.PlannerCaches`
ownership:

* :class:`LruStore` — a flat bounded LRU with hit/miss/eviction
  counters and a coarse lock for concurrent writers.
* :class:`ProfileKeyedStore` — the per-profile pattern previously
  duplicated across partition.py, partition_cdm.py and filling.py: a
  ``WeakKeyDictionary[ProfileDB, OrderedDict]`` whose inner dicts are
  bounded LRUs, so tables die with their profile and a long sweep
  over arbitrary (float) batch keys stays bounded.

Reads take a lock-free fast path: CPython dict operations are atomic
under the GIL, values are pure functions of their keys, and the worst
a racing eviction can cause is a spurious miss (recomputed
identically).  Mutation (inserts, evictions, clears) is serialized by
the store's lock so capacity bookkeeping never corrupts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from weakref import WeakKeyDictionary


@dataclass
class StoreStats:
    """Hit/miss/eviction counters plus the live entry count of a store."""

    name: str
    hits: int
    misses: int
    evictions: int
    entries: int


class LruStore:
    """A flat bounded LRU with counters, safe for concurrent readers.

    ``max_entries=None`` disables eviction (for stores whose key space
    is naturally bounded, like the per-topology comm constants).
    ``None`` values cannot be stored: a ``None`` from :meth:`get`
    always means *miss*.
    """

    def __init__(self, max_entries: int | None, *, name: str = ""):
        self.name = name
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        try:
            # repro: allow[lock-discipline] GIL-atomic read-path refresh
            self._data.move_to_end(key)
        except KeyError:
            # Lost a race with an eviction; the value itself is still
            # valid (entries are pure functions of their keys).
            pass
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            elif self.max_entries is not None:
                while len(data) >= self.max_entries:
                    data.popitem(last=False)
                    self.evictions += 1
            data[key] = value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def items(self):
        """Snapshot of (key, value) pairs (for persistence/tests)."""
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def stats(self) -> StoreStats:
        return StoreStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._data),
        )


class ProfileKeyedStore:
    """Weak per-profile tables of bounded LRU entries.

    The outer mapping is keyed weakly by :class:`ProfileDB`, so every
    table dies with its profile; each profile's inner dict is a bounded
    LRU capped at ``max_entries`` (the keys typically contain continuous
    float batch values, so a long-lived sweep must not accumulate
    entries without bound).
    """

    def __init__(self, max_entries: int, *, name: str = ""):
        self.name = name
        self.max_entries = max_entries
        self._by_profile: WeakKeyDictionary = WeakKeyDictionary()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, profile, key):
        per = self._by_profile.get(profile)
        if per is None:
            self.misses += 1
            return None
        value = per.get(key)
        if value is None:
            self.misses += 1
            return None
        try:
            per.move_to_end(key)
        except KeyError:
            pass
        self.hits += 1
        return value

    def put(self, profile, key, value) -> None:
        with self._lock:
            per = self._by_profile.get(profile)
            if per is None:
                per = self._by_profile.setdefault(profile, OrderedDict())
            if key in per:
                per.move_to_end(key)
            else:
                while len(per) >= self.max_entries:
                    per.popitem(last=False)
                    self.evictions += 1
            per[key] = value

    def contains(self, profile, key) -> bool:
        """Whether ``profile``'s table holds ``key``, without counting a
        hit or a miss or refreshing the entry."""
        per = self._by_profile.get(profile)
        return per is not None and key in per

    def clear(self, profile=None) -> None:
        """Drop all tables, or only the given profile's."""
        with self._lock:
            if profile is None:
                self._by_profile.clear()
            else:
                self._by_profile.pop(profile, None)

    def profiles(self) -> list:
        """Live profiles that currently own a table."""
        with self._lock:
            return list(self._by_profile.keys())

    def entry_count(self, profile=None) -> int:
        """Number of entries in one profile's table, or in all tables."""
        with self._lock:
            if profile is not None:
                return len(self._by_profile.get(profile, ()))
            return sum(len(per) for per in self._by_profile.values())

    def items(self):
        """Snapshot of (profile, key, value) triples (for persistence)."""
        with self._lock:
            return [
                (profile, key, value)
                for profile, per in self._by_profile.items()
                for key, value in per.items()
            ]

    def __len__(self) -> int:
        return self.entry_count()

    def stats(self) -> StoreStats:
        return StoreStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=self.entry_count(),
        )
