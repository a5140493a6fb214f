"""Bounded LRU+TTL cache of served query results.

Every query endpoint is a pure function of ``(dataset fingerprint,
endpoint name, canonicalized parameters)`` — the dataset is immutable
behind the RCU snapshot holder, so a result computed once is valid for
as long as that snapshot is current.  The cache therefore keys on the
fingerprint, which makes hot-reload invalidation automatic: a new
snapshot has a new fingerprint, so every stale entry simply stops
being looked up and ages out of the LRU order.

Two bounds keep the cache honest under a production workload:

* **entries** — a hard LRU capacity, so a scan over distinct queries
  (e.g. per-API ``change_impact`` sweeps) cannot grow memory without
  limit;
* **TTL** — an optional time-to-live, for deployments that want a
  ceiling on how long any answer, however hot, is served without
  recomputation.

The serve layer stores each answer's encoded payload — the
``canonical_json`` bytes of the payload dict, not the dict — so a hit
is spliced into the response envelope without encoding the payload
again.  All operations take one lock; values are stored as opaque
objects and never copied (bytes are immutable anyway).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional, Tuple


def canonical_query_key(fingerprint: str, endpoint: str,
                        params: Mapping[str, Any]) -> str:
    """The cache key for one query against one dataset snapshot.

    ``params`` must already be *normalized* by the endpoint (defaults
    filled in, order-insensitive API lists sorted and deduplicated) —
    canonicalization here is purely structural: keys are emitted
    sorted, with compact separators, so two dicts with equal contents
    produce identical keys regardless of insertion order.
    """
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return f"{fingerprint}|{endpoint}|{blob}"


class QueryCache:
    """Thread-safe bounded LRU with optional per-entry TTL."""

    def __init__(self, max_entries: int = 1024,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self._lock = threading.Lock()
        # key -> (stored_at, value); insertion order is LRU order with
        # the most recently used entry last.
        self._entries: "OrderedDict[str, Tuple[float, Any]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None on a miss (absent or expired)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_at, value = entry
            if (self.ttl_seconds is not None
                    and self.clock() - stored_at >= self.ttl_seconds):
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (self.clock(), value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, float]:
        """Counter snapshot (consistent: taken under the lock)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "lookups": lookups,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
