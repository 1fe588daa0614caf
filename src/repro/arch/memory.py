"""Conventional cache hierarchy as an LRU reuse model.

Machine models need to answer one question per stream access: *which
level serves this stream's data, and what does moving it cost?*  The
model tracks recency at **granule** granularity — one granule per
(region, index) pair, e.g. one vertex's edge list — in three nested LRU
structures sized like Table 2's L1/L2/L3.  A granule hit at level X
charges X's per-line pipelined transfer cost for every cache line the
stream occupies; granules fall through to DRAM cost when evicted
everywhere.

Granule tracking (instead of per-line tracking) keeps the model O(1)
per stream access, which matters because a single GPM run touches
millions of edge lists.  It is conservative in both directions: it
ignores partial-line sharing between adjacent edge lists and line
conflicts inside a granule, neither of which the paper's analysis
depends on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.arch.config import CacheConfig
from repro.obs.counters import NULL_COUNTERS

#: DRAM row-buffer size assumed by the row-activation estimate: every
#: DRAM-served granule activates ``ceil(nbytes / ROW_BUFFER_BYTES)``
#: rows (streams are sequential, so within-granule accesses hit the
#: open row).
ROW_BUFFER_BYTES = 8 * 1024


class LruBytes:
    """A byte-capacity LRU over variable-size granules."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self._entries: OrderedDict[tuple, int] = OrderedDict()
        self._used = 0

    def access(self, key: tuple, nbytes: int) -> bool:
        """Touch ``key``; returns True on hit.  Inserts on miss.

        Granules larger than the capacity are clamped to it.  A hit at
        the granule's stored size only refreshes its recency (used bytes
        cannot grow, so nothing is evicted); a hit at a new size (value
        gathers, accumulator reloads) re-inserts it like a miss.
        """
        entries = self._entries
        capacity = self.capacity
        if nbytes > capacity:
            nbytes = capacity
        old = entries.get(key)
        if old is not None:
            if old == nbytes:
                entries.move_to_end(key)
                return True
            del entries[key]
            self._used -= old
        used = self._used + nbytes
        while used > capacity and entries:
            used -= entries.popitem(last=False)[1]
        entries[key] = nbytes
        self._used = used
        return old is not None

    def contains(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0


@dataclass
class CacheHierarchy:
    """Three-level LRU granule model with per-line pipelined costs."""

    config: CacheConfig = field(default_factory=CacheConfig)
    #: Include the L1 level (the CPU path; SparseCore stream fetches
    #: bypass L1 into the S-Cache, Section 4.3).
    use_l1: bool = True
    #: Observability sink and the counter-name prefix of this instance
    #: (e.g. ``mem.cpu`` / ``mem.sc``).
    counters: object = NULL_COUNTERS
    name: str = "mem"

    def __post_init__(self):
        c = self.config
        self._l1 = LruBytes(c.l1d_bytes) if self.use_l1 else None
        self._l2 = LruBytes(c.l2_bytes)
        self._l3 = LruBytes(c.l3_bytes)

    def _count_level(self, level: str, nbytes: int, lines: int,
                     cost: float) -> None:
        counters = self.counters
        counters.inc(f"{self.name}.dram_accesses" if level == "dram"
                     else f"{self.name}.{level}_hits")
        counters.add(f"{self.name}.lines_transferred", lines)
        counters.add(f"{self.name}.stall_cycles", cost)
        if level == "dram":
            counters.add(f"{self.name}.dram_bytes",
                         lines * self.config.line_bytes)
            counters.add(f"{self.name}.dram_row_activations",
                         -(-nbytes // ROW_BUFFER_BYTES))

    def lines_for(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.config.line_bytes)

    def access(self, key: tuple, nbytes: int) -> float:
        """Touch granule ``key`` of ``nbytes``; returns stall cycles.

        The first line pays the level's load-to-use latency; subsequent
        lines stream at the level's pipelined per-line cost.
        """
        if nbytes <= 0:
            return 0.0
        c = self.config
        lines = self.lines_for(nbytes)
        in_l1 = self._l1.access(key, nbytes) if self._l1 is not None else False
        in_l2 = self._l2.access(key, nbytes)
        in_l3 = self._l3.access(key, nbytes)

        if in_l1:
            level, cost = "l1", float(c.l1_latency)
        elif in_l2:
            level, cost = "l2", c.l2_latency + (lines - 1) * c.l2_line_cost
        elif in_l3:
            level, cost = "l3", c.l3_latency + (lines - 1) * c.l3_line_cost
        else:
            level = "dram"
            cost = c.dram_latency + (lines - 1) * c.dram_line_cost
        if self.counters.enabled:
            self._count_level(level, nbytes, lines, cost)
        return cost

    def access_pipelined(self, key: tuple, nbytes: int) -> float:
        """Touch granule ``key`` with latency hidden by prefetching.

        The S-Cache prefetches streams on the known-sequential pattern
        (Section 4.3), so only per-line transfer bandwidth is charged —
        no load-to-use latency.  L1 is bypassed by design.
        """
        if nbytes <= 0:
            return 0.0
        c = self.config
        lines = self.lines_for(nbytes)
        in_l2 = self._l2.access(key, nbytes)
        in_l3 = self._l3.access(key, nbytes)
        if in_l2:
            level, cost = "l2", lines * c.l2_line_cost
        elif in_l3:
            level, cost = "l3", lines * c.l3_line_cost
        else:
            level, cost = "dram", lines * c.dram_line_cost
        if self.counters.enabled:
            self._count_level(level, nbytes, lines, cost)
        return float(cost)

    def reset(self) -> None:
        if self._l1 is not None:
            self._l1.clear()
        self._l2.clear()
        self._l3.clear()
