"""Stream-reuse scratchpad (Section 4.2).

A 16 KB scratchpad shared by all SUs keeps streams with non-zero
priority (assigned by the compiler after reuse analysis), so re-reading
a hot stream — the outer edge list of a GPM loop nest, a tensor row
reused across columns — costs no L2/L3 traffic.
"""

from __future__ import annotations

from repro.arch.memory import LruBytes
from repro.obs.counters import NULL_COUNTERS


class Scratchpad:
    """Priority-gated LRU over stream granules."""

    def __init__(self, capacity_bytes: int = 16 * 1024,
                 counters=NULL_COUNTERS):
        self.capacity = capacity_bytes
        self._lru = LruBytes(capacity_bytes)
        self.counters = counters

    def access(self, key: tuple, nbytes: int, priority: int) -> bool:
        """Touch stream granule ``key``; returns True when served from
        the scratchpad (no memory traffic).  Priority-0 streams bypass."""
        if priority <= 0:
            if self.counters.enabled:
                self.counters.inc("scratchpad.bypasses")
            return False
        if nbytes > self.capacity:
            if self.counters.enabled:
                self.counters.inc("scratchpad.misses")
            return False
        hit = self._lru.access(key, nbytes)
        if self.counters.enabled:
            if hit:
                self.counters.inc("scratchpad.pin_hits")
                self.counters.add("scratchpad.bytes_served", nbytes)
            else:
                self.counters.inc("scratchpad.misses")
        return hit

    @property
    def used_bytes(self) -> int:
        return self._lru.used_bytes

    def reset(self) -> None:
        self._lru.clear()
