"""Stream data movement, shared by the recording context and the
instruction-level executor: a log of every access, priced afterwards.

For every stream load the question is: what does moving this stream
cost (a) the baseline CPU through L1/L2/L3, and (b) SparseCore through
scratchpad -> S-Cache -> L2/L3 with prefetching?  Both hierarchies are
driven by the *same* access sequence, so reuse behaviour (the paper's
"higher degree means the stream can be reused more often") shows up on
both sides consistently.

:class:`TransferModel` is that sequence.  Recording only appends: a
stream load (:meth:`~TransferModel.load_stream`) or a value gather
(:meth:`~TransferModel.load_values`) is one row — an interned integer
granule id, its bytes and its kind (a stream at priority 0, a stream
the scratchpad may keep, or a value gather), logged by one
:meth:`~TransferModel._log` — and the call returns the row's index;
the bulk recorders append their rows as arrays
(:meth:`~TransferModel.append`).  An op names the rows it is charged
for, in the order its charge sums them, and its trace asks for the sums
(:meth:`~TransferModel.charges`) when it analyses its ops.

Pricing (:meth:`~TransferModel.price`) takes the rows not priced yet
one level at a time: the scratchpad first, since it decides which
stream rows reach SparseCore's L2/L3, then the CPU's L1/L2/L3 and
SparseCore's L2/L3.  Each level is an
:class:`~repro.arch.memory.LruLevel` that carries its state from chunk
to chunk.  A priced row keeps the level that served it on each machine;
its cycles, its scratchpad-hit flag and a probe's ``mem.*``,
``scratchpad.*`` and ``transfer.*`` counters all follow from those.
:class:`~repro.arch.memory.CacheHierarchy` and
:class:`~repro.arch.scratchpad.Scratchpad` answer the same rows one at a
time; the tests hold the pricing to them.

The model reads ``cache`` and ``scratchpad_bytes`` from its
configuration when it is built, and prices every row under them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.memory import ROW_BUFFER_BYTES, LruLevel
from repro.obs.counters import NULL_COUNTERS

#: Memory-level parallelism of SparseCore's value-gather path: the
#: VA_gen -> load queue -> vBuf pipeline (Section 4.5) keeps several
#: gathers in flight, hiding part — not all — of the demand latency the
#: CPU's scalar loop exposes.
VALUE_GATHER_MLP = 2.0

#: Row kinds: a stream load at priority 0, a stream load the scratchpad
#: may keep (compiler-assigned priority above 0), and a value gather.
STREAM, PRIORITY, VALUE = 0, 1, 2

#: What served a row on one machine: nothing (a zero-byte row), the
#: scratchpad (SparseCore stream loads), L1 (the CPU only), L2, L3 or
#: DRAM.
NONE, SCRATCHPAD, L1, L2, L3, DRAM = range(6)

_LEVEL_COUNTERS = {L1: "l1_hits", L2: "l2_hits", L3: "l3_hits",
                   DRAM: "dram_accesses"}


@dataclass
class StreamLoadCost:
    """Stall cycles charged to each machine for one logged row."""

    cpu_cycles: float
    sc_cycles: float
    scratchpad_hit: bool


def _serve(levels, codes, gids, nbytes, rows, served) -> None:
    """Each of ``rows`` touches every level of one hierarchy; record in
    ``served`` the code of the innermost level that hits (else DRAM)."""
    if not rows.size:
        return
    gids, nbytes = gids[rows], nbytes[rows]
    out = np.full(rows.size, DRAM, dtype=np.uint8)
    for level, code in reversed(tuple(zip(levels, codes))):
        out[level.hits(gids, nbytes)] = code
    served[rows] = out


class TransferModel:
    """Paired CPU/SparseCore data-movement model: an access log, priced
    level by level."""

    def __init__(self, config: SparseCoreConfig | None = None,
                 counters=NULL_COUNTERS):
        self.config = config or SparseCoreConfig()
        self.counters = counters
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        #: per granule prefix, the ids of ``prefix + (i,)`` by ``i``
        #: (-1: not interned yet)
        self._families: dict[tuple, np.ndarray] = {}
        #: rows logged and not priced yet, one packed array per column
        self._gid = array("q")
        self._nbytes = array("q")
        self._kind = array("B")
        self._rows = 0
        self._priced = 0
        #: the priced rows, one (granule ids, bytes, code) chunk per
        #: pricing pass; a row's one-byte code packs its kind and the
        #: levels that served it (:meth:`_decode`)
        self._chunks: list[tuple] = []
        self._starts: list[int] = []
        cache = self.config.cache
        self._scratchpad = LruLevel(self.config.scratchpad_bytes)
        self._cpu = (LruLevel(cache.l1d_bytes), LruLevel(cache.l2_bytes),
                     LruLevel(cache.l3_bytes))
        self._sc = (LruLevel(cache.l2_bytes), LruLevel(cache.l3_bytes))

    # -- the log -----------------------------------------------------------

    def granule_id(self, key: tuple) -> int:
        """The interned id of granule ``key``."""
        gid = self._ids.get(key)
        if gid is None:
            gid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return gid

    def granule_ids(self, prefix: tuple, index: np.ndarray) -> np.ndarray:
        """Ids of the granules ``prefix + (i,)`` for every ``i`` of
        ``index`` (non-negative integers), the ids :meth:`granule_id`
        gives the same keys; each is interned once per model."""
        memo = self._families.get(prefix)
        top = int(index.max()) + 1 if index.size else 0
        if memo is None or memo.size < top:
            old = np.empty(0, dtype=np.int64) if memo is None else memo
            memo = self._families[prefix] = np.concatenate(
                (old, np.full(max(top, 2 * old.size) - old.size, -1,
                              dtype=np.int64)))
        gids = memo[index]
        missing = gids < 0
        if missing.any():
            new = index[missing]
            first = np.unique(new, return_index=True)[1]
            for i in new[np.sort(first)].tolist():
                memo[i] = self.granule_id(prefix + (i,))
            gids = memo[index]
        return gids

    def load_stream(self, key: tuple, nbytes: int, priority: int = 0) -> int:
        """Log one stream load of granule ``key``; returns its row.

        ``key`` is a stable granule identity (e.g. ``("edges", v)``);
        ``priority`` is the compiler-assigned scratchpad priority.
        """
        return self._log(key, nbytes, PRIORITY if priority > 0 else STREAM)

    def load_values(self, key: tuple, nbytes: int) -> int:
        """Log one value gather of granule ``key``; returns its row.

        Value fetches go through the *normal* hierarchy on both
        machines (Section 4.3: values are not cached in the S-Cache).
        On SparseCore the VA_gen -> load queue -> vBuf path keeps many
        gathers in flight (Section 4.5), so only the demand latency
        divided by :data:`VALUE_GATHER_MLP` is charged; the CPU's
        scalar loop exposes all of it."""
        return self._log(key, nbytes, VALUE)

    def _log(self, key: tuple, nbytes: int, kind: int) -> int:
        """Log one row of granule ``key``; returns its index."""
        gid = self._ids.get(key)
        if gid is None:
            gid = self.granule_id(key)
        self._gid.append(gid)
        self._nbytes.append(nbytes)
        self._kind.append(kind)
        row = self._rows
        self._rows = row + 1
        return row

    def append(self, gids: np.ndarray, nbytes: np.ndarray,
               kind: int | np.ndarray) -> int:
        """Log rows in bulk (arrays in access order, ``kind`` one
        :data:`STREAM`/:data:`PRIORITY`/:data:`VALUE` for all or one
        per row); returns the first row."""
        row, n = self._rows, len(gids)
        self._gid.frombytes(gids.astype(np.int64, copy=False).tobytes())
        self._nbytes.frombytes(nbytes.astype(np.int64, copy=False).tobytes())
        self._kind.frombytes(np.broadcast_to(kind, n).astype(
            np.uint8).tobytes())
        self._rows = row + n
        return row

    def rows(self) -> list[tuple]:
        """The log as ``(granule key, bytes, kind)`` per row."""
        self.price()
        keys, out = self._keys, []
        for gids, nbytes, code in self._chunks:
            out += zip(map(keys.__getitem__, gids.tolist()), nbytes.tolist(),
                       (code & 3).tolist())
        return out

    # -- pricing -----------------------------------------------------------

    def price(self) -> None:
        """Price every logged row not priced yet."""
        n = self._rows - self._priced
        if not n:
            return
        gids = np.array(self._gid, dtype=np.int64)
        nbytes = np.array(self._nbytes, dtype=np.int64)
        kind = np.array(self._kind, dtype=np.uint8)
        for col in (self._gid, self._nbytes, self._kind):
            del col[:]
        moved = nbytes > 0
        # The scratchpad keeps priority streams no larger than itself,
        # zero-byte ones too; other streams and values bypass it.
        sc_level = np.zeros(n, dtype=np.uint8)
        kept = np.flatnonzero((kind == PRIORITY)
                              & (nbytes <= self._scratchpad.capacity))
        if kept.size:
            sc_level[kept[self._scratchpad.hits(gids[kept], nbytes[kept])]] \
                = SCRATCHPAD
        cpu_level = np.zeros(n, dtype=np.uint8)
        _serve(self._cpu, (L1, L2, L3), gids, nbytes,
               np.flatnonzero(moved), cpu_level)
        _serve(self._sc, (L2, L3), gids, nbytes,
               np.flatnonzero(moved & (sc_level != SCRATCHPAD)), sc_level)
        if self.counters.enabled:
            self._count(nbytes, kind, cpu_level, sc_level)
        self._chunks.append((gids.astype(np.int32), nbytes,
                             kind | cpu_level << 2 | sc_level << 5))
        self._starts.append(self._priced)
        self._priced = self._rows

    @staticmethod
    def _decode(code: np.ndarray) -> tuple:
        """A row code's kind and the levels that served it on the CPU
        and on SparseCore."""
        return code & 3, code >> 2 & 7, code >> 5

    def _lookup(self, rows: np.ndarray) -> tuple:
        """Bytes and codes of priced ``rows``."""
        starts, chunks = self._starts, self._chunks
        if rows.min() >= starts[-1]:
            _, nbytes, code = chunks[-1]
            local = rows - starts[-1]
            return nbytes[local], code[local]
        which = np.searchsorted(starts, rows, side="right") - 1
        nbytes = np.empty(rows.size, dtype=np.int64)
        code = np.empty(rows.size, dtype=np.uint8)
        for c in np.unique(which).tolist():
            sel = which == c
            local = rows[sel] - starts[c]
            nbytes[sel], code[sel] = chunks[c][1][local], chunks[c][2][local]
        return nbytes, code

    def _row_cycles(self, rows: np.ndarray):
        nbytes, code = self._lookup(rows)
        return self._cycles(nbytes, *self._decode(code))[:2]

    def _cycles(self, nbytes, kind, cpu_level, sc_level):
        """Stall cycles of rows of ``nbytes`` each on the CPU and on
        SparseCore, then the CPU's and SparseCore's demand cycles (the
        latter before the gather overlap) as integers."""
        c = self.config.cache
        # Indexed by level code: the first line pays the level's
        # load-to-use latency, later lines its pipelined per-line cost
        # (an L1 hit pays its latency only).
        latency = np.array([0, 0, c.l1_latency, c.l2_latency, c.l3_latency,
                            c.dram_latency], dtype=np.int64)
        per_line = np.array([0, 0, 0, c.l2_line_cost, c.l3_line_cost,
                             c.dram_line_cost], dtype=np.int64)
        lines = -(-nbytes // c.line_bytes)
        cpu = latency[cpu_level] + (lines - 1) * per_line[cpu_level]
        # SparseCore prefetches streams (per-line cost, no latency) and
        # overlaps value gathers' demand latency.
        line_cost = per_line[sc_level]
        demand = np.where(kind == VALUE,
                          latency[sc_level] + (lines - 1) * line_cost,
                          lines * line_cost)
        sc = np.where(kind == VALUE, demand / VALUE_GATHER_MLP, demand)
        return cpu.astype(np.float64), sc.astype(np.float64), cpu, demand

    def charges(self, mem: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Each op's ``(cpu_mem, sc_mem)``: the cycles of its rows
        (``mem[i]``, row indices in summation order) added left to right
        from zero, as the op's charge was summed when recorded."""
        lens = np.fromiter(map(len, mem), dtype=np.int64, count=len(mem))
        return self.charge_rows(
            np.fromiter(chain.from_iterable(mem), dtype=np.int64,
                        count=int(lens.sum())), lens)

    def charge_rows(self, rows: np.ndarray, counts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`charges` of ops whose rows are given end to end: op
        ``i`` is charged for the next ``counts[i]`` of ``rows``."""
        n = counts.size
        cpu, sc = np.zeros(n), np.zeros(n)
        if not rows.size:
            return cpu, sc
        self.price()
        row_cpu, row_sc = self._row_cycles(rows)
        starts = np.cumsum(counts) - counts
        for k in range(int(counts.max())):
            ops = np.flatnonzero(counts > k)
            at = starts[ops] + k
            cpu[ops] += row_cpu[at]
            sc[ops] += row_sc[at]
        return cpu, sc

    def cost(self, row: int) -> StreamLoadCost:
        """What logged row ``row`` costs each machine."""
        if row >= self._priced:
            self.price()
        cpu, sc = self._row_cycles(np.array([row]))
        return StreamLoadCost(cpu.item(), sc.item(),
                              self.scratchpad_hit(row))

    def scratchpad_hit(self, row: int) -> bool:
        """Whether the scratchpad served logged row ``row``."""
        if row >= self._priced:
            self.price()
        chunk = bisect_right(self._starts, row) - 1
        code = int(self._chunks[chunk][2][row - self._starts[chunk]])
        return code >> 5 == SCRATCHPAD

    # -- probe counters ------------------------------------------------------

    def _count(self, nbytes, kind, cpu_level, sc_level) -> None:
        """Count one priced chunk as per-access counting would have."""
        counters = self.counters
        for name, rows in (("stream", kind != VALUE), ("value", kind == VALUE)):
            n = int(np.count_nonzero(rows))
            if n:
                counters.add(f"transfer.{name}_loads", n)
                counters.add(f"transfer.{name}_bytes", int(nbytes[rows].sum()))
        pinned = sc_level == SCRATCHPAD
        hits = int(np.count_nonzero(pinned))
        for name, n in (
                ("bypasses", int(np.count_nonzero(kind == STREAM))),
                ("pin_hits", hits),
                ("misses", int(np.count_nonzero(kind == PRIORITY)) - hits)):
            if n:
                counters.add(f"scratchpad.{name}", n)
        if hits:
            counters.add("scratchpad.bytes_served", int(nbytes[pinned].sum()))
        cpu, demand = self._cycles(nbytes, kind, cpu_level, sc_level)[2:]
        lines = -(-nbytes // self.config.cache.line_bytes)
        for name, level, cycles in (("mem.cpu", cpu_level, cpu),
                                    ("mem.sc", sc_level, demand)):
            self._count_hierarchy(name, level, nbytes, lines, cycles)

    def _count_hierarchy(self, name, level, nbytes, lines, cycles) -> None:
        served = level >= L1
        if not served.any():
            return
        counters = self.counters
        for code, counter in _LEVEL_COUNTERS.items():
            n = int(np.count_nonzero(level == code))
            if n:
                counters.add(f"{name}.{counter}", n)
        counters.add(f"{name}.lines_transferred", int(lines[served].sum()))
        # An L1 hit's stall is a float; per-access sums turn float there.
        stall = int(cycles[served].sum())
        counters.add(f"{name}.stall_cycles",
                     float(stall) if (level == L1).any() else stall)
        dram = level == DRAM
        if dram.any():
            counters.add(f"{name}.dram_bytes", int(lines[dram].sum())
                         * self.config.cache.line_bytes)
            counters.add(f"{name}.dram_row_activations",
                         int((-(-nbytes[dram] // ROW_BUFFER_BYTES)).sum()))
