"""The recording machine context.

:class:`Machine` exposes the stream ISA at function-call granularity:
``load``/``load_values`` stand in for ``S_READ``/``S_VREAD``,
``intersect``/``subtract``/``merge`` (and ``*_count``) for the compute
instructions, ``vinter``/``vmerge`` for the value instructions, and
``nest_intersect`` for ``S_NESTINTER``.  Each call returns the
functional result and appends one record to the trace.  Each stream
load and value gather, at the moment the data would move, appends one
row to the machine's access log (a
:class:`~repro.arch.transfer.TransferModel`), and each op names the
rows it is charged for: its value gathers, then the pending loads of
``a`` and ``b``, in the order its charge sums them.  The trace has the
log price its rows when it analyses its ops.  Three calls record many
ops at once, exactly as the per-op calls would: ``vinter_sweep`` a
kernel's whole cross product of ``S_VREAD`` + ``S_VINTER`` pairs (the
inner-product SpMSpM and TTM), ``count_sweep`` a whole GPM counting
level under one DFS node, and ``nest_intersect`` every sub-op of one
``S_NESTINTER``; each appends its log rows as arrays.  A sweep block
is one slot table: the masked table is its log, and one column
permutation of it each op's charged rows.  The GPM calls log their
edge lists through one ``_load_edge_lists``.  Ops reach the trace one
at a time through
:meth:`~repro.record.columnar.ColumnarTrace.add_op_keys`, and
``vinter_sweep``'s as blocks of arrays through
:meth:`~repro.record.columnar.ColumnarTrace.add_ops`, probed or not;
:meth:`Machine.freeze` freezes the trace and, under a probe, derives
the op counters and the event timeline from the frozen columns and the
memory counters from the priced log.

Kernels annotate structure the hardware exploits:

* ``priority=1`` streams are scratchpad candidates (compiler-assigned
  stream priority, Section 4.2),
* ``with machine.burst():`` brackets independent operations (what the
  nested-intersection translator exposes to the SUs, Section 4.6),
* ``cpu_loop``/``sc_loop``/``scalar`` record the surrounding scalar
  instructions each machine executes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.trace import NO_BURST, FrozenTrace, OpKind
from repro.arch.transfer import PRIORITY, STREAM, VALUE, TransferModel
from repro.errors import StreamTypeFault
from repro.obs.probe import NULL_PROBE, Probe
from repro.record.columnar import ColumnarTrace
from repro.streams import ops
from repro.streams.runstats import UNBOUNDED, truncate_bound
from repro.streams.stream import KEY_BYTES

_VALUE_BYTES = 8

#: Scalar instructions the CPU's explicit inner loop needs per nested
#: sub-intersection (loop bookkeeping, bounds check, address generation)
#: that S_NESTINTER eliminates (Section 6.3.2).
CPU_NESTED_LOOP_INSTRS = 8

#: Scalar instructions both machines spend setting up one stream op
#: (operand addresses, call overhead of the generated code).
OP_SETUP_INSTRS = 4

#: Tracer span names per :class:`OpKind` value.
_OP_NAMES = tuple(kind.name.lower() for kind in OpKind)


@dataclass(slots=True)
class StreamOperand:
    """A stream as seen by a kernel: data plus movement bookkeeping."""

    keys: np.ndarray
    values: np.ndarray | None = None
    #: reuse-model identity of the value data (None for intermediates)
    vgranule: tuple | None = None
    #: access-log row of the load whose charge the first consuming op
    #: takes (None: nothing pending)
    pending: int | None = None

    def __len__(self) -> int:
        return int(self.keys.size)

    def take_pending(self) -> int | None:
        row, self.pending = self.pending, None
        return row


class StreamSweep:
    """(key,value) streams prepared once by :meth:`Machine.sweep_streams`
    for :meth:`Machine.vinter_sweep`: their arrays, also end to end
    (``flat_keys``/``flat_vals``, stream ``i`` at ``starts[i]`` with
    ``sizes[i]`` keys), and what the access log appends for each
    stream — its granule's ids (-1 for none), key bytes and row kind."""

    __slots__ = ("log", "keys", "vals", "granules", "priority", "flat_keys",
                 "flat_vals", "sizes", "starts", "gids", "vgids", "nbytes",
                 "kind")

    def __init__(self, log: TransferModel, keys: Sequence[np.ndarray],
                 vals: Sequence[np.ndarray],
                 granules: Sequence[tuple | None], priority: int = 0):
        if any(v is None for v in vals):
            raise StreamTypeFault(
                "a (key,value) stream is required for value computation")
        self.log = log
        self.keys, self.vals = list(keys), list(vals)
        self.granules, self.priority = list(granules), priority
        n = len(self.keys)
        self.sizes = np.fromiter((k.size for k in self.keys),
                                 dtype=np.int64, count=n)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.flat_keys = (np.concatenate(self.keys) if n
                          else np.empty(0, dtype=np.int64))
        self.flat_vals = (np.concatenate(self.vals) if n
                          else np.empty(0, dtype=np.float64))
        ids = [(log.granule_id(g), log.granule_id(("vals",) + g))
               if g is not None else (-1, -1) for g in self.granules]
        self.gids, self.vgids = np.array(ids, dtype=np.int64).reshape(
            -1, 2).T
        self.nbytes = self.sizes * KEY_BYTES
        self.kind = PRIORITY if priority > 0 else STREAM

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class AppRun:
    """Result of running one application kernel on the machine."""

    name: str
    result: object
    trace: ColumnarTrace
    machine: "Machine"

    @property
    def count(self) -> int:
        return int(self.result)  # type: ignore[arg-type]

    def cpu_report(self, config=None):
        """Cost this run's trace on the baseline CPU model."""
        from repro.arch.cpu import CpuModel

        return CpuModel(config).cost(self.trace)

    def sparsecore_report(self, config=None):
        """Cost this run's trace on the SparseCore model."""
        from repro.arch.sparsecore import SparseCoreModel

        return SparseCoreModel(config).cost(self.trace)

    def speedup(self, config=None) -> float:
        """SparseCore speedup over the CPU baseline on this run."""
        return self.sparsecore_report(config).speedup_over(self.cpu_report())


class Machine:
    """Recording machine: functional results + cost trace."""

    __slots__ = ("config", "obs", "trace", "transfer", "_burst",
                 "record_lengths", "length_samples", "_observed", "_marks",
                 "_clocks", "_append_length", "_defer")

    def __init__(self, config: SparseCoreConfig | None = None,
                 name: str = "run", record_lengths: bool = False,
                 probe: Probe | None = None):
        self.config = config or SparseCoreConfig()
        self.obs = probe or NULL_PROBE
        self.transfer = TransferModel(self.config, self.obs.counters)
        self.trace = ColumnarTrace(name, width=self.config.su_buffer_width,
                                   log=self.transfer)
        self._burst = NO_BURST
        self.record_lengths = record_lengths
        #: operand-length samples for the Figure 14 CDFs
        self.length_samples: list[int] = []
        #: ops :meth:`freeze` has already counted and traced
        self._observed = 0
        #: fetch instants and burst spans awaiting the timeline replay,
        #: as (op index, emit) in the order they happened; ``emit`` takes
        #: the clock array
        self._marks: list[tuple] = []
        #: tracer time axis: a sequential model-cycle clock (ops advance
        #: it by their SU time, stalls by their charged cycles); entry i
        #: is the clock before traced op i, the last entry the clock now
        self._clocks = np.zeros(1)
        # Pre-bound hot-path methods: one op records through a single
        # bound-method call, not repeated attribute chases.  The trace
        # defers merge-run analysis: it takes key arrays, not OpStats.
        self._defer = self.trace.add_op_keys
        self._append_length = self.length_samples.append

    # -- stream initialization (S_READ / S_VREAD) -----------------------------

    def load(self, keys: np.ndarray, granule: tuple | None = None,
             priority: int = 0) -> StreamOperand:
        """Initialize a key stream from memory (``S_READ``).

        ``granule`` identifies the memory region for reuse modelling
        (e.g. ``("edges", graph_id, v)``); ``None`` marks data already
        on-chip (an intermediate result)."""
        operand = StreamOperand(keys)
        if granule is not None:
            nbytes = keys.size * KEY_BYTES
            row = operand.pending = self.transfer.load_stream(
                granule, nbytes, priority)
            if self.obs.enabled:
                self._observe_load(granule, nbytes, row, self.trace.num_ops)
        return operand

    def load_values(self, keys: np.ndarray, values: np.ndarray,
                    granule: tuple | None = None,
                    priority: int = 0) -> StreamOperand:
        """Initialize a (key,value) stream (``S_VREAD``); values move
        through the normal hierarchy at compute time."""
        operand = self.load(keys, granule, priority)
        operand.values = values
        if granule is not None:
            operand.vgranule = ("vals",) + granule
        return operand

    def neighbors(self, graph, v: int, priority: int = 0) -> StreamOperand:
        """Load vertex ``v``'s edge list as a stream."""
        return self.load(graph.neighbors(v), ("edges", id(graph), v),
                         priority)

    def reload(self, operand: StreamOperand, granule: tuple,
               priority: int = 0) -> StreamOperand:
        """Charge re-fetching an intermediate that spilled off-chip.

        Used when generated code revisits a previously produced stream
        after touching many others in between (e.g. the outer-product
        dataflow cycling through all of C's row accumulators per k);
        the LRU decides whether the data actually left the hierarchy.
        The reload's charge lands on the next op that consumes
        ``operand``, which must not hold a pending charge already."""
        if operand.pending is not None:
            raise ValueError("reload of a stream whose pending load charge "
                             "no op has taken yet")
        nbytes = operand.keys.size * KEY_BYTES
        if operand.values is not None:
            nbytes += operand.values.size * _VALUE_BYTES
        operand.pending = self.transfer.load_stream(granule, nbytes, priority)
        return operand

    # -- bursts ----------------------------------------------------------------

    @contextlib.contextmanager
    def burst(self) -> Iterator[int]:
        """Bracket independent operations (SU-parallel work)."""
        prev = self._burst
        self._burst = burst_id = self.trace.new_burst()
        start_ops = self.trace.num_ops
        try:
            yield burst_id
        finally:
            self._burst = prev
            if self.obs.enabled:
                if self.obs.counters.enabled:
                    self.obs.counters.inc("machine.bursts")
                end = self.trace.num_ops
                if self.obs.tracer.enabled and end > start_ops:
                    def emit(clocks, span=self.obs.tracer.span):
                        span(f"burst {burst_id}", "burst", clocks[start_ops],
                             clocks[end] - clocks[start_ops], tid=2,
                             ops=end - start_ops)
                    self._marks.append((end, emit))

    # -- scalar accounting -------------------------------------------------------

    def scalar(self, n: int) -> None:
        self.trace.add_scalar(n)

    def cpu_loop(self, n: int) -> None:
        self.trace.add_cpu_scalar(n)

    def sc_loop(self, n: int) -> None:
        self.trace.add_sc_scalar(n)

    # -- observability -----------------------------------------------------------

    def _observe_load(self, granule: tuple, nbytes: int, row: int,
                      at: int) -> None:
        """Count one stream load and queue its fetch instant before op
        ``at`` (its scratchpad-hit flag is read from the priced log when
        emitted)."""
        counters = self.obs.counters
        if counters.enabled:
            counters.inc("machine.stream_loads")
            counters.add("machine.stream_bytes", nbytes)
        if self.obs.tracer.enabled:
            def emit(clocks, instant=self.obs.tracer.instant,
                     hit=self.transfer.scratchpad_hit):
                instant("fetch " + granule[0], "fetch", clocks[at], tid=1,
                        granule=repr(granule), bytes=nbytes,
                        scratchpad_hit=hit(row))
            self._marks.append((at, emit))

    def freeze(self) -> FrozenTrace:
        """Freeze the trace for the cost models.

        A probed machine also observes every op recorded since its
        previous ``freeze``: the op counters are sums over the frozen
        columns, and the timeline is replayed from them, so the tracer
        sees the same events, timestamps and drops as if each op had
        been traced when it was recorded.  Pricing the whole log counts
        its memory accesses.
        """
        trace = self.trace.freeze()
        if self.obs.enabled:
            self.transfer.price()
            self._observe(trace)
        return trace

    def _observe(self, t: FrozenTrace) -> None:
        """Count and trace the ops of ``t`` not observed yet.

        Ops advance the clock by their span and stall, so each queued
        mark (a fetch instant, a burst span) is emitted between the same
        two ops, at the same clock, as when it happened.
        """
        lo, hi = self._observed, t.num_ops
        self._observed = hi
        kind, su, eff = t.kind[lo:hi], t.su_cycles[lo:hi], t.eff_elems[lo:hi]
        # cpu_steps counts the merge-path union, so the matches are the
        # operand elements it does not count twice.
        matches = eff - t.cpu_steps[lo:hi]
        flops, sc = t.flop_pairs[lo:hi], t.sc_mem[lo:hi]
        counters = self.obs.counters
        if counters.enabled and hi > lo:
            kinds = np.bincount(kind, minlength=len(OpKind)).tolist()
            for name, n in zip(_OP_NAMES, kinds):
                if n:
                    counters.add(f"machine.ops.{name}", n)
            nested = int(np.count_nonzero(t.nested[lo:hi]))
            if nested:
                counters.add("machine.ops.nested", nested)
            counters.add("su.busy_cycles", int(su.sum()))
            counters.add("machine.matches", int(matches.sum()))
            counters.add("machine.eff_elems", int(eff.sum()))
            for name, col in (("machine.sc_stall_cycles", sc),
                              ("machine.cpu_stall_cycles", t.cpu_mem[lo:hi])):
                charged = col[col != 0]
                if charged.size:
                    # Summed in op order, as per-op increments would be.
                    counters.add(name, np.add.accumulate(charged)[-1].item())
            if flops.any():
                counters.add("svpu.flop_pairs", int(flops.sum()))
                counters.add("svpu.value_loads", int(np.count_nonzero(flops)))
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        # SVPU FLOPs overlap the SU key walk (Section 4.5): the span
        # covers whichever side dominates, as the model does.
        dur = np.maximum(su, flops * self.config.flop_cycles_per_pair)
        # A running sum, added op by op as a clock would be.
        clocks = np.add.accumulate(np.concatenate((self._clocks[-1:],
                                                   dur + sc)))
        self._clocks = np.concatenate((self._clocks[:-1], clocks))
        marks, m = self._marks, 0
        events, cap = tracer.events, tracer.max_events
        for i, (k, clock, d, stall, burst, n, elems) in enumerate(
                zip(kind.tolist(), clocks.tolist(), dur.tolist(),
                    sc.tolist(), t.burst[lo:hi].tolist(), matches.tolist(),
                    eff.tolist()), lo):
            if len(events) >= cap:
                # Full: every remaining op span, stall span and queued
                # mark would be dropped one call at a time; count them.
                tracer.dropped += (hi - i + len(marks) - m
                                   + int(np.count_nonzero(sc[i - lo:] > 0)))
                break
            while m < len(marks) and marks[m][0] == i:
                marks[m][1](self._clocks)
                m += 1
            tracer.span(_OP_NAMES[k], "su", clock, d, tid=0, burst=burst,
                        matches=n, eff_elems=elems)
            if stall > 0:
                tracer.span("stall", "stall", clock + d, stall, tid=1,
                            cycles=stall)
        else:
            for _, emit in marks[m:]:
                emit(self._clocks)
        self._marks = []

    # -- compute ops -------------------------------------------------------------

    def _coerce(self, s) -> StreamOperand:
        if isinstance(s, StreamOperand):
            return s
        return StreamOperand(np.asarray(s, dtype=np.int64))

    def _operands(self, a, b, bound: int):
        """Coerce both operands and truncate each of them to ``bound``
        once; the effective keys feed the recorder and the kernel."""
        a, b = self._coerce(a), self._coerce(b)
        return (a, b, truncate_bound(a.keys, bound),
                truncate_bound(b.keys, bound))

    def _record(self, kind: OpKind, a: StreamOperand, b: StreamOperand,
                a_keys: np.ndarray, b_keys: np.ndarray, *,
                flop_pairs: int = 0, mem: tuple = ()):
        """Record one op over the effective keys ``a_keys``/``b_keys``;
        its merge-run analysis is deferred to the trace, so count ops
        answer through the functional kernels.  The op is charged for
        ``mem`` (its value gathers), then ``a``'s and ``b``'s pending
        loads, summed in that order."""
        row = a.pending
        if row is not None:
            mem += (row,)
            a.pending = None
        row = b.pending
        if row is not None:
            mem += (row,)
            b.pending = None
        self._defer(kind, a_keys, b_keys, burst=self._burst, mem=mem,
                    flop_pairs=flop_pairs)
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS
        if self.record_lengths:
            self._append_length(a.keys.size)
            self._append_length(b.keys.size)

    def intersect(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        self._record(OpKind.INTERSECT, a, b, a_keys, b_keys)
        return StreamOperand(ops.intersect(a_keys, b_keys))

    def intersect_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        self._record(OpKind.INTERSECT, a, b, a_keys, b_keys)
        return ops.intersect_count(a_keys, b_keys)

    def subtract(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        self._record(OpKind.SUBTRACT, a, b, a_keys, b_keys)
        return StreamOperand(ops.subtract(a_keys, b_keys))

    def subtract_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        self._record(OpKind.SUBTRACT, a, b, a_keys, b_keys)
        return ops.subtract_count(a_keys, b_keys)

    def merge(self, a, b) -> StreamOperand:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.MERGE, a, b, a.keys, b.keys)
        return StreamOperand(ops.merge(a.keys, b.keys))

    def merge_count(self, a, b) -> int:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.MERGE, a, b, a.keys, b.keys)
        return ops.merge_count(a.keys, b.keys)

    # -- value ops ------------------------------------------------------------------

    def _require_values(self, s: StreamOperand) -> np.ndarray:
        if s.values is None:
            raise StreamTypeFault(
                "a (key,value) stream is required for value computation"
            )
        return s.values

    def _gather_values(self, a: StreamOperand, n_a: int, b: StreamOperand,
                       n_b: int) -> tuple:
        """Log the value gathers of ``n_a`` floats of ``a`` and ``n_b``
        of ``b``; returns their rows.

        Only memory-backed value streams (``S_VREAD``) are charged:
        produced intermediates live on-chip (vBuf / S-Cache) until the
        generated code explicitly spills them (:meth:`reload`)."""
        rows = ()
        if n_a > 0 and a.vgranule is not None:
            rows = (self.transfer.load_values(a.vgranule,
                                              n_a * _VALUE_BYTES),)
        if n_b > 0 and b.vgranule is not None:
            rows += (self.transfer.load_values(b.vgranule,
                                               n_b * _VALUE_BYTES),)
        return rows

    def vinter(self, a: StreamOperand, b: StreamOperand,
               op: str = "MAC", bound: int = UNBOUNDED) -> float:
        """``S_VINTER``: reduce over value pairs of intersected keys."""
        av, bv = self._require_values(a), self._require_values(b)
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        n_matches = ops.intersect_count(a_keys, b_keys)
        self._record(OpKind.VINTER, a, b, a_keys, b_keys,
                     flop_pairs=n_matches,
                     mem=self._gather_values(a, n_matches, b, n_matches))
        return ops.vinter(a_keys, av, b_keys, bv, op)

    def sweep_streams(self, keys: Sequence[np.ndarray],
                      vals: Sequence[np.ndarray],
                      granules: Sequence[tuple | None],
                      priority: int = 0) -> StreamSweep:
        """Prepare (key,value) streams for :meth:`vinter_sweep`: stream
        ``j`` is ``keys[j]``/``vals[j]`` of granule ``granules[j]``
        (None: on-chip data), loaded at ``priority``.  A kernel
        prepares the streams it sweeps once."""
        return StreamSweep(self.transfer, keys, vals, granules, priority)

    def vinter_sweep(self, rows: StreamSweep, sweep: StreamSweep
                     ) -> np.ndarray:
        """``S_VINTER`` MAC of every stream of ``rows`` against every
        stream of ``sweep``.

        Records exactly what this loop records, in the same order::

            for i in range(len(rows)):
                a = self.load_values(rows.keys[i], rows.vals[i],
                                     rows.granules[i], rows.priority)
                for j in range(len(sweep)):
                    b = self.load_values(sweep.keys[j], sweep.vals[j],
                                         sweep.granules[j], sweep.priority)
                    out[i, j] = self.vinter(a, b, "MAC")

        — the same ops, access-log rows, per-op charges, setup
        instructions, length samples and probe counters and fetch
        marks — and returns ``out`` bit for bit.  One call records a
        kernel's whole cross product, much as a stream semantic register
        streams a whole loop nest from one configuration: it works in
        blocks of whole rows of at most the trace's compaction bound of
        operand keys (one row at least), whose values come from one
        :func:`~repro.streams.ops.vinter_mac_cross` call, whose log rows
        are appended as one array and whose ops reach the trace as
        arrays (:meth:`~repro.record.columnar.ColumnarTrace.add_ops`).
        """
        if rows.log is not self.transfer or sweep.log is not self.transfer:
            raise ValueError("the sweep was prepared by another machine")
        out = np.empty((len(rows), len(sweep)))
        # Row i's ops hold its keys once per stream and every stream.
        ends = np.cumsum(rows.sizes * len(sweep) + int(sweep.sizes.sum()))
        lo = 0
        while lo < len(rows):
            hi = max(lo + 1, int(ends.searchsorted(
                (ends[lo - 1] if lo else 0) + self.trace.compact_elems,
                side="right")))
            out[lo:hi] = self._vinter_block(rows, lo, hi, sweep)
            lo = hi
        return out

    def _vinter_block(self, rows: StreamSweep, lo: int, hi: int,
                      sweep: StreamSweep) -> np.ndarray:
        """Record rows ``lo:hi`` of :meth:`vinter_sweep`; returns their
        values.

        The block is one slot table with a row per row of ``rows``: its
        first column is the row's load, then pair ``j`` (op ``i*s + j``)
        has three columns, its stream's load and the gathers of a's
        values and of b's.  A mask marks the slots that log a row (the
        loads of streams with a granule, the gathers of matching pairs);
        the masked table read row by row is the loop's log."""
        r, s = hi - lo, len(sweep)
        sizes = rows.sizes[lo:hi]
        k0, k1 = int(rows.starts[lo]), int(rows.starts[hi - 1] + sizes[-1])
        a_keys = rows.flat_keys[k0:k1]
        counts, values = ops.vinter_mac_cross(
            a_keys, rows.flat_vals[k0:k1], sizes, sweep.flat_keys,
            sweep.flat_vals, sweep.sizes)

        def table(row, load, a, b, dtype=np.int64):
            t = np.empty((r, 1 + 3 * s), dtype=dtype)
            t[:, 0], t[:, 1::3], t[:, 2::3], t[:, 3::3] = row, load, a, b
            return t

        row_load, pair_load = rows.gids[lo:hi] >= 0, sweep.gids >= 0
        match = counts > 0
        mask = table(row_load, pair_load, match & row_load[:, None],
                     match & pair_load, bool)
        gathered = counts * _VALUE_BYTES
        gids = table(rows.gids[lo:hi], sweep.gids, rows.vgids[lo:hi, None],
                     sweep.vgids)[mask]
        first = self.transfer.append(
            gids,
            table(rows.nbytes[lo:hi], sweep.nbytes, gathered, gathered)[mask],
            table(rows.kind, sweep.kind, VALUE, VALUE, np.uint8)[mask])
        # The log row of each slot (-1: it logs none).
        at = np.full(mask.shape, -1, dtype=np.int64)
        at[mask] = np.arange(first, first + gids.size)
        # Each op's slots as _record() sums them: the gathers, the row's
        # load on the row's first op, the pair's load.
        order = np.arange(1, 1 + 3 * s).reshape(s, 3)[:, [1, 2, 0]].ravel()
        order = np.concatenate((order[:2], [0], order[2:]))
        n_mem = mask[:, 1:].reshape(r, s, 3).sum(axis=2)
        n_mem[:, :1] += mask[:, :1]
        op = self.trace.num_ops
        if self.obs.enabled:
            self._observe_sweep(rows, lo, hi, sweep, at, op)
        self.trace.add_ops(
            OpKind.VINTER, a_keys[ops.repeat_streams(sizes, s)],
            np.repeat(sizes, s), np.tile(sweep.flat_keys, r),
            np.tile(sweep.sizes, r), counts.ravel(),
            mem=at[:, order][mask[:, order]], mem_counts=n_mem.ravel(),
            burst=self._burst)
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS * r * s
        if self.record_lengths:
            lengths = np.empty((r, s, 2), dtype=np.int64)
            lengths[..., 0] = sizes[:, None]
            lengths[..., 1] = sweep.sizes
            self.length_samples += lengths.ravel().tolist()
        return values

    def _observe_sweep(self, rows, lo, hi, sweep, at, op) -> None:
        """Observe the loads of rows ``lo:hi`` of a sweep whose first op
        is ``op``: row ``i``'s before its first op, each pair's before
        its own (their log rows are the load columns of the block's
        slot table ``at``)."""
        s = len(sweep)
        loaded = [(j, g, n) for j, (g, n) in enumerate(
            zip(sweep.granules, sweep.nbytes.tolist())) if g is not None]
        for i, (granule, nbytes, row, loads) in enumerate(zip(
                rows.granules[lo:hi], rows.nbytes[lo:hi].tolist(),
                at[:, 0].tolist(), at[:, 1::3].tolist())):
            if granule is not None:
                self._observe_load(granule, nbytes, row, op + i * s)
            for j, granule, nbytes in loaded:
                self._observe_load(granule, nbytes, loads[j], op + i * s + j)

    def vmerge(self, alpha: float, a: StreamOperand,
               beta: float, b: StreamOperand) -> StreamOperand:
        """``S_VMERGE``: scaled sparse addition producing a new stream."""
        av, bv = self._require_values(a), self._require_values(b)
        # The functional kernel is stateless, so computing the result
        # first (for its length) charges nothing out of order.
        keys, vals = ops.vmerge(alpha, a.keys, av, beta, b.keys, bv)
        self._record(OpKind.VMERGE, a, b, a.keys, b.keys,
                     flop_pairs=int(keys.size),
                     mem=self._gather_values(a, len(a), b, len(b)))
        return StreamOperand(keys, vals)

    # -- GPM levels in bulk ----------------------------------------------------------

    def count_sweep(self, graph, verts: np.ndarray, kinds: Sequence[OpKind],
                    bounds: np.ndarray | None = None, *,
                    exclude: np.ndarray | None = None,
                    label: int | None = None) -> int:
        """Count a GPM counting level: one candidate set per child ``j``.

        ``verts`` has one row per edge list each child loads, in load
        order: row ``i`` holds the vertex whose edge list step ``i``
        (``kinds[i]``) intersects or subtracts, the last row the base
        vertex.  Child ``j``'s candidates are ``N(verts[-1, j])`` below
        ``bounds[j]`` (a key, so non-negative; ``None`` bounds no
        child), combined with each step's ``N(verts[i, j])`` below the
        bound, then minus row ``j`` of ``exclude`` (on-chip keys, each
        row sorted) and kept only where ``graph.labels`` equals
        ``label``.  Returns the total over all children and records
        exactly what this per-op loop records::

            for j in range(verts.shape[1]):
                bound = UNBOUNDED if bounds is None else bounds[j]
                operands = [(kind, self.neighbors(graph, v))
                            for kind, v in zip(kinds, verts[:-1, j])]
                if exclude is not None:
                    operands.append((SUBTRACT, StreamOperand(exclude[j])))
                cand = self.neighbors(graph, verts[-1, j])
                if not operands:  # no op: the size is free
                    cand = StreamOperand(truncate_bound(cand.keys, bound))
                for kind, operand in operands:
                    cand = (self.intersect if kind == INTERSECT
                            else self.subtract)(cand, operand, bound)
                keys = cand.keys
                if label is not None:
                    self.scalar(2 * keys.size)  # one compare per key
                    if graph.labels is not None:
                        keys = keys[graph.labels[keys] == label]
                total += keys.size

        — the same stream loads (at priority 0: a counting level's edge
        lists are not reused), ops, memory charges (the base's pending
        charge lands on the first op, and is dropped when there is
        none), setup instructions and length samples, in the same order.
        One call records a whole leaf level under one DFS node, as one
        ``S_NESTINTER`` expands into its sub-ops: each step's edge
        lists are cut at their bounds by one ``searchsorted`` over
        ``graph.edge_keys``, and each step tests every candidate with
        one more (a candidate ``c`` of child ``j`` is in
        ``N(verts[i, j])`` when that edge exists); the loads are one
        :meth:`_load_edge_lists` append, so each op pays only its
        deferred record.
        """
        n = verts.shape[1]
        if not n:
            return 0
        indptr, indices = graph.indptr, graph.indices
        edge_keys, span = graph.edge_keys, graph.num_vertices
        lo = indptr[verts]
        hi = indptr[verts + 1]
        end = hi if bounds is None else edge_keys.searchsorted(
            verts * span + np.minimum(bounds, span))
        views = [[indices[i:j] for i, j in zip(row_lo, row_end)]
                 for row_lo, row_end in zip(lo.tolist(), end.tolist())]
        # The candidates of every child, in child order, with the child
        # each belongs to; op i keeps or drops each of them at once.
        cand = np.concatenate(views[-1])
        owner = np.arange(n).repeat(end[-1] - lo[-1])
        n_steps = len(kinds)
        records, a_views = [], views[-1]
        for i in range(n_steps + (exclude is not None)):
            if i:
                starts = owner.searchsorted(np.arange(n + 1)).tolist()
                a_views = [cand[p:q] for p, q in zip(starts, starts[1:])]
            if i < n_steps:
                kind, b_views = kinds[i], views[i]
                probe = verts[i][owner] * span + cand
                hit = edge_keys.take(edge_keys.searchsorted(probe),
                                     mode="clip") == probe
            else:
                kind, cut = OpKind.SUBTRACT, [exclude.shape[1]] * n
                if bounds is not None:
                    cut = np.count_nonzero(exclude < bounds[:, None],
                                           axis=1).tolist()
                b_views = [row[:c] for row, c in zip(exclude, cut)]
                hit = (exclude[owner] == cand[:, None]).any(axis=1)
            records.append((kind, a_views, b_views))
            if kind != OpKind.INTERSECT:
                np.logical_not(hit, out=hit)
            cand, owner = cand[hit], owner[hit]

        defer, burst = self._defer, self._burst
        # Child j loads its rows' edge lists in row order.
        n_rows = verts.shape[0]
        first = self._load_edge_lists(graph, verts.T.ravel(), len(records),
                                      n_rows)
        for j in range(n):
            rows = range(first + j * n_rows, first + (j + 1) * n_rows)
            # As _record() sums them: the base's charge, then the step's.
            mem = (rows[-1],)
            for i, (kind, a_views, b_views) in enumerate(records):
                if i < n_steps:
                    mem += (rows[i],)
                defer(kind, a_views[j], b_views[j], burst=burst, mem=mem)
                mem = ()
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS * n * len(records)
        if self.record_lengths:
            # Full operand lengths: whole edge lists, the intermediates
            # and the matched set.
            sizes = (hi - lo).tolist()
            if exclude is not None:
                sizes.insert(n_steps, [exclude.shape[1]] * n)
            for j in range(n):
                for i, (_, a_views, _) in enumerate(records):
                    self.length_samples += (
                        a_views[j].size if i else sizes[-1][j], sizes[i][j])
        if label is not None:
            self.scalar(2 * int(cand.size))
            if graph.labels is not None:
                cand = cand[graph.labels[cand] == label]
        return int(cand.size)

    def nest_intersect(self, s: StreamOperand, graph) -> int:
        """``S_NESTINTER``: sum of |S ∩ N(s_i)| bounded by each s_i.

        The dependent edge-list streams are generated by the processor
        from the GFRs; the translator's sub-ops all share one burst and
        carry no scalar loop overhead on SparseCore (the CPU runs the
        explicit loop instead).  Like the translator, one call expands
        every sub-op in order: sub-op ``i`` loads ``N(s_i)`` and records
        ``S`` below ``s_i`` (``S[:i]``, as stream keys strictly
        increase) against ``N(s_i)`` below ``s_i``, with ``S``'s pending
        charge on the first.  The total is one ``searchsorted`` of every
        truncated edge list in ``S``."""
        s = self._coerce(s)
        keys = s.keys
        pending = s.take_pending()
        with self.burst() as burst:
            if not keys.size:
                return 0
            lo = graph.indptr[keys]
            end = graph.edge_keys.searchsorted(keys * graph.num_vertices
                                               + keys)
            below = [graph.indices[i:j]
                     for i, j in zip(lo.tolist(), end.tolist())]
            found = np.concatenate(below)
            total = int(np.count_nonzero(
                keys.take(keys.searchsorted(found), mode="clip") == found))
            first = self._load_edge_lists(graph, keys)
            defer, kind = self._defer, OpKind.INTERSECT
            for i in range(keys.size):
                row = first + i
                # The load's charge, then S's pending one.
                defer(kind, keys[:i], below[i], burst=burst, nested=True,
                      mem=(row,) if pending is None else (row, pending))
                pending = None
            self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS * keys.size)
            if self.record_lengths:
                for size in (graph.indptr[keys + 1] - lo).tolist():
                    self.length_samples += (keys.size, size)
        return total

    def _load_edge_lists(self, graph, verts: np.ndarray, ops: int = 1,
                         group: int = 1) -> int:
        """Log the edge-list loads of ``verts`` (in load order, at
        priority 0) as one append; returns the first row.  Each group of
        ``group`` loads feeds the next ``ops`` ops, so a probe sees load
        ``i`` fetched before op ``num_ops + (i // group) * ops``."""
        indptr, edges = graph.indptr, ("edges", id(graph))
        nbytes = (indptr[verts + 1] - indptr[verts]) * KEY_BYTES
        first = self.transfer.append(
            self.transfer.granule_ids(edges, verts), nbytes, STREAM)
        if self.obs.enabled:
            op = self.trace.num_ops
            for i, (v, size) in enumerate(zip(verts.tolist(),
                                              nbytes.tolist())):
                self._observe_load(edges + (v,), size, first + i,
                                   op + i // group * ops)
        return first
