"""Conventional cache hierarchy as an LRU reuse model.

Machine models need to answer one question per stream access: *which
level serves this stream's data, and what does moving it cost?*  The
model tracks recency at **granule** granularity — one granule per
(region, index) pair, e.g. one vertex's edge list — in three nested LRU
structures sized like Table 2's L1/L2/L3.  A granule hit at level X
charges X's per-line pipelined transfer cost for every cache line the
stream occupies; granules fall through to DRAM cost when evicted
everywhere.  Granule tracking ignores partial-line sharing between
adjacent edge lists and line conflicts inside a granule, neither of
which the paper's analysis depends on.

Two forms answer the same question.  :class:`LruBytes` and
:class:`CacheHierarchy` take one access at a time; they are the oracle
the tests replay.  Recording prices its access log with
:class:`LruLevel` instead: one level at a time over a chunk of the
log, with exactly :class:`LruBytes`'s semantics.  An access's level
depends only on earlier accesses, so pricing a log after the fact gives
the same answer as pricing each access as it happens (Mattson et al.,
"Evaluation techniques for storage hierarchies", 1970).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

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


class LruLevel:
    """One :class:`LruBytes` level, priced chunk by chunk.

    :meth:`hits` answers, for the next accesses of the level's sequence,
    what :meth:`LruBytes.access` would answer for each — with its clamp,
    its resized hits and its zero-byte granules — and carries the state
    to the next chunk.  The level's *footprint* is the sum over its
    granules of their largest clamped size.  While the footprint fits
    the capacity the level has never evicted (the bytes it holds never
    exceed the footprint), so an access hits exactly when its granule
    was seen before, and a chunk is answered with a few array
    operations.  From the first chunk whose footprint no longer fits,
    the level runs one LRU loop over integer granule ids, starting from
    what it holds: every granule seen, at its latest size, in order of
    last use.
    """

    __slots__ = ("capacity", "_largest", "_latest", "_last", "_clock",
                 "_footprint", "_lru", "_used")

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        #: per granule id: largest and latest clamped size (-1: unseen)
        #: and the clock of its last access, while the footprint fits
        self._largest = np.full(0, -1, dtype=np.int64)
        self._latest = np.zeros(0, dtype=np.int64)
        self._last = np.zeros(0, dtype=np.int64)
        self._clock = 0
        self._footprint = 0
        #: the LRU (id -> clamped size, oldest first) once it no longer fits
        self._lru: OrderedDict[int, int] | None = None
        self._used = 0

    @property
    def evicts(self) -> bool:
        """Whether the footprint has outgrown the capacity."""
        return self._lru is not None

    def hits(self, gids: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """Hit flags of the next accesses, ``gids[i]`` of ``nbytes[i]``."""
        sizes = np.minimum(nbytes, self.capacity)
        if self._lru is None:
            hit = self._repeats(gids, sizes)
            if hit is not None:
                return hit
            self._start_lru()
        return self._replay(gids.tolist(), sizes.tolist())

    def _repeats(self, gids: np.ndarray, sizes: np.ndarray):
        """Hits of a chunk that keeps the footprint within the capacity
        (an access hits iff its granule was seen before), or ``None``,
        leaving the state untouched, when the chunk outgrows it."""
        n = gids.size
        if not n:
            return np.zeros(0, dtype=bool)
        top = int(gids.max()) + 1
        if top > self._largest.size:
            grow = max(top, 2 * self._largest.size) - self._largest.size
            self._largest = np.concatenate(
                (self._largest, np.full(grow, -1, dtype=np.int64)))
            self._latest = np.concatenate(
                (self._latest, np.zeros(grow, dtype=np.int64)))
            self._last = np.concatenate(
                (self._last, np.zeros(grow, dtype=np.int64)))
        order = np.argsort(gids, kind="stable")
        ordered = gids[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        ids = ordered[starts]
        first = order[starts]
        last = order[np.append(starts[1:], n) - 1]
        prev = self._largest[ids]
        base = np.maximum(prev, 0)
        largest = np.maximum(base, np.maximum.reduceat(sizes[order], starts))
        footprint = self._footprint + int((largest - base).sum())
        if footprint > self.capacity:
            return None
        hit = np.ones(n, dtype=bool)
        hit[first[prev < 0]] = False
        self._largest[ids] = largest
        self._latest[ids] = sizes[last]
        self._last[ids] = self._clock + last
        self._clock += n
        self._footprint = footprint
        return hit

    def _start_lru(self) -> None:
        seen = np.flatnonzero(self._largest >= 0)
        seen = seen[np.argsort(self._last[seen])]
        sizes = self._latest[seen]
        self._lru = OrderedDict(zip(seen.tolist(), sizes.tolist()))
        self._used = int(sizes.sum())
        self._largest = self._latest = self._last = None

    def _replay(self, gids: list[int], sizes: list[int]) -> np.ndarray:
        """:meth:`LruBytes.access` over integer ids, one access at a
        time (sizes are already clamped, so an eviction always finds an
        older entry)."""
        entries, capacity, used = self._lru, self.capacity, self._used
        get, touch, evict = entries.get, entries.move_to_end, entries.popitem
        hit = bytearray(len(gids))
        for i, (gid, size) in enumerate(zip(gids, sizes)):
            old = get(gid)
            if old is not None:
                hit[i] = 1
                if old == size:
                    touch(gid)
                    continue
                del entries[gid]
                used -= old
            used += size
            while used > capacity:
                used -= evict(last=False)[1]
            entries[gid] = size
        self._used = used
        return np.frombuffer(hit, dtype=bool)


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
