"""The recording machine context.

:class:`Machine` exposes the stream ISA at function-call granularity:
``load``/``load_values`` stand in for ``S_READ``/``S_VREAD``,
``intersect``/``subtract``/``merge`` (and ``*_count``) for the compute
instructions, ``vinter``/``vmerge`` for the value instructions, and
``nest_intersect`` for ``S_NESTINTER``.  Each call returns the
functional result and appends one record to the trace; stream loads
charge the paired CPU/SparseCore memory models at the moment the data
would move.  Three calls record many ops at once, exactly as the
per-op calls would: ``vinter_sweep`` a whole row of ``S_VREAD`` +
``S_VINTER`` pairs, ``count_sweep`` a whole GPM counting level under
one DFS node, and ``nest_intersect`` every sub-op of one
``S_NESTINTER``.
Every op is recorded through
:meth:`~repro.record.columnar.ColumnarTrace.add_op_keys`, probed or
not; :meth:`Machine.freeze` freezes the trace and, under a probe,
derives the op counters and the event timeline from the frozen columns.

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
from repro.arch.transfer import TransferModel
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
    #: pending memory-stall charges attached to the first consuming op
    pending_cpu: float = 0.0
    pending_sc: float = 0.0

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def has_values(self) -> bool:
        return self.values is not None

    def take_pending(self) -> tuple[float, float]:
        cpu, sc = self.pending_cpu, self.pending_sc
        self.pending_cpu = self.pending_sc = 0.0
        return cpu, sc


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
        self.trace = ColumnarTrace(name, width=self.config.su_buffer_width)
        self.transfer = TransferModel(self.config, self.obs.counters)
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
            cost = self.transfer.load_stream(granule, nbytes, priority)
            operand.pending_cpu = cost.cpu_cycles
            operand.pending_sc = cost.sc_cycles
            if self.obs.enabled:
                self._observe_load(granule, nbytes, cost.scratchpad_hit)
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
        the LRU decides whether the data actually left the hierarchy."""
        nbytes = operand.keys.size * KEY_BYTES
        if operand.values is not None:
            nbytes += operand.values.size * _VALUE_BYTES
        cost = self.transfer.load_stream(granule, nbytes, priority)
        operand.pending_cpu += cost.cpu_cycles
        operand.pending_sc += cost.sc_cycles
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

    def _observe_load(self, granule: tuple, nbytes: int,
                      scratchpad_hit: bool) -> None:
        """Count one stream load and queue its fetch instant."""
        counters = self.obs.counters
        if counters.enabled:
            counters.inc("machine.stream_loads")
            counters.add("machine.stream_bytes", nbytes)
        if self.obs.tracer.enabled:
            at = self.trace.num_ops

            def emit(clocks, instant=self.obs.tracer.instant):
                instant("fetch " + granule[0], "fetch", clocks[at], tid=1,
                        granule=repr(granule), bytes=nbytes,
                        scratchpad_hit=scratchpad_hit)
            self._marks.append((at, emit))

    def freeze(self) -> FrozenTrace:
        """Freeze the trace for the cost models.

        A probed machine also observes every op recorded since its
        previous ``freeze``: the op counters are sums over the frozen
        columns, and the timeline is replayed from them, so the tracer
        sees the same events, timestamps and drops as if each op had
        been traced when it was recorded.
        """
        trace = self.trace.freeze()
        if self.obs.enabled:
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
                flop_pairs: int = 0, extra_mem: tuple[float, float] = (0, 0)):
        """Record one op over the effective keys ``a_keys``/``b_keys``;
        its merge-run analysis is deferred to the trace, so count ops
        answer through the functional kernels."""
        # Inlined take_pending(): almost every op sees zero pending
        # charges, so skip the call (and the stores) in that case.
        cpu_mem, sc_mem = extra_mem
        if a.pending_cpu or a.pending_sc:
            cpu_mem += a.pending_cpu
            sc_mem += a.pending_sc
            a.pending_cpu = a.pending_sc = 0.0
        if b.pending_cpu or b.pending_sc:
            cpu_mem += b.pending_cpu
            sc_mem += b.pending_sc
            b.pending_cpu = b.pending_sc = 0.0
        self._defer(kind, a_keys, b_keys, burst=self._burst, cpu_mem=cpu_mem,
                    sc_mem=sc_mem, flop_pairs=flop_pairs)
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

    def _gather_values(self, operand: StreamOperand,
                       n_elems: int) -> tuple[float, float]:
        """Charge a value gather of ``n_elems`` floats for one operand.

        Only memory-backed value streams (``S_VREAD``) are charged:
        produced intermediates live on-chip (vBuf / S-Cache) until the
        generated code explicitly spills them (:meth:`reload`)."""
        if n_elems <= 0 or operand.vgranule is None:
            return 0.0, 0.0
        cost = self.transfer.load_values(operand.vgranule,
                                         n_elems * _VALUE_BYTES)
        return cost.cpu_cycles, cost.sc_cycles

    def vinter(self, a: StreamOperand, b: StreamOperand,
               op: str = "MAC", bound: int = UNBOUNDED) -> float:
        """``S_VINTER``: reduce over value pairs of intersected keys."""
        av, bv = self._require_values(a), self._require_values(b)
        a, b, a_keys, b_keys = self._operands(a, b, bound)
        n_matches = ops.intersect_count(a_keys, b_keys)
        ga = self._gather_values(a, n_matches)
        gb = self._gather_values(b, n_matches)
        self._record(OpKind.VINTER, a, b, a_keys, b_keys,
                     flop_pairs=n_matches,
                     extra_mem=(ga[0] + gb[0], ga[1] + gb[1]))
        return ops.vinter(a_keys, av, b_keys, bv, op)

    def vinter_sweep(self, a: StreamOperand, keys: Sequence[np.ndarray],
                     vals: Sequence[np.ndarray],
                     granules: Sequence[tuple | None],
                     priority: int = 0) -> np.ndarray:
        """``S_VINTER`` MAC of ``a`` against a sweep of (key,value) streams.

        Records exactly what this loop records, in the same order::

            for j in range(len(keys)):
                b = self.load_values(keys[j], vals[j], granules[j], priority)
                out[j] = self.vinter(a, b, "MAC")

        — the same ops, stream loads, value gathers and per-op memory
        charges (``a``'s pending charge lands on the first op) — and
        returns ``out`` bit for bit.  One call records a kernel's whole
        row sweep, much as an indirection stream walks a whole index
        array from one configuration: the values come from one batched
        kernel (:func:`repro.streams.ops.vinter_mac_sweep`), and each op
        pays only its memory-model accesses and its deferred record.
        """
        av = self._require_values(a)
        counts, values = ops.vinter_mac_sweep(a.keys, av, keys, vals)
        observed = self.obs.enabled
        load_stream = self.transfer.load_stream
        load_values = self.transfer.load_values
        defer, burst, kind = self._defer, self._burst, OpKind.VINTER
        a_keys, a_vgranule = a.keys, a.vgranule
        a_cpu, a_sc = a.pending_cpu, a.pending_sc
        if len(keys):
            a.pending_cpu = a.pending_sc = 0.0
        for b_keys, granule, n_matches in zip(keys, granules,
                                              counts.tolist()):
            # Mirrors load() then vinter()/_record(): the charge sums
            # are formed in the same order, so they are bit-identical.
            b_cpu = b_sc = cpu_mem = sc_mem = 0.0
            if granule is not None:
                nbytes = b_keys.size * KEY_BYTES
                cost = load_stream(granule, nbytes, priority)
                b_cpu, b_sc = cost.cpu_cycles, cost.sc_cycles
                if observed:
                    self._observe_load(granule, nbytes, cost.scratchpad_hit)
            if n_matches:
                nbytes = n_matches * _VALUE_BYTES
                ga_cpu = ga_sc = gb_cpu = gb_sc = 0.0
                if a_vgranule is not None:
                    cost = load_values(a_vgranule, nbytes)
                    ga_cpu, ga_sc = cost.cpu_cycles, cost.sc_cycles
                if granule is not None:
                    cost = load_values(("vals",) + granule, nbytes)
                    gb_cpu, gb_sc = cost.cpu_cycles, cost.sc_cycles
                cpu_mem, sc_mem = ga_cpu + gb_cpu, ga_sc + gb_sc
            if a_cpu or a_sc:
                cpu_mem += a_cpu
                sc_mem += a_sc
                a_cpu = a_sc = 0.0
            if b_cpu or b_sc:
                cpu_mem += b_cpu
                sc_mem += b_sc
            defer(kind, a_keys, b_keys, UNBOUNDED, burst=burst,
                  cpu_mem=cpu_mem, sc_mem=sc_mem, flop_pairs=n_matches)
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS * len(keys)
        if self.record_lengths:
            a_size = a_keys.size
            for b_keys in keys:
                self._append_length(a_size)
                self._append_length(b_keys.size)
        return values

    def vmerge(self, alpha: float, a: StreamOperand,
               beta: float, b: StreamOperand) -> StreamOperand:
        """``S_VMERGE``: scaled sparse addition producing a new stream."""
        av, bv = self._require_values(a), self._require_values(b)
        # The functional kernel is stateless, so computing the result
        # first (for its length) charges nothing out of order.
        keys, vals = ops.vmerge(alpha, a.keys, av, beta, b.keys, bv)
        n_out = int(keys.size)
        ga = self._gather_values(a, len(a))
        gb = self._gather_values(b, len(b))
        self._record(OpKind.VMERGE, a, b, a.keys, b.keys, flop_pairs=n_out,
                     extra_mem=(ga[0] + gb[0], ga[1] + gb[1]))
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
        ``N(verts[i, j])`` when that edge exists), so each op pays only
        its memory-model accesses and its deferred record.
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
        lo_l, hi_l = lo.tolist(), hi.tolist()
        views = [[indices[i:j] for i, j in zip(row_lo, row_end)]
                 for row_lo, row_end in zip(lo_l, end.tolist())]
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

        observed = self.obs.enabled
        load_stream, defer, burst = (self.transfer.load_stream, self._defer,
                                     self._burst)
        edges = ("edges", id(graph))
        loads = list(zip(verts.tolist(), lo_l, hi_l))
        costs = [None] * len(loads)
        for j in range(n):
            for i, (row, row_lo, row_hi) in enumerate(loads):
                granule = edges + (row[j],)
                nbytes = (row_hi[j] - row_lo[j]) * KEY_BYTES
                cost = costs[i] = load_stream(granule, nbytes, 0)
                if observed:
                    self._observe_load(granule, nbytes, cost.scratchpad_hit)
            # As _record() sums them: the base's charge, then the step's.
            cpu_mem, sc_mem = costs[-1].cpu_cycles, costs[-1].sc_cycles
            for i, (kind, a_views, b_views) in enumerate(records):
                if i < n_steps:
                    cpu_mem += costs[i].cpu_cycles
                    sc_mem += costs[i].sc_cycles
                defer(kind, a_views[j], b_views[j], burst=burst,
                      cpu_mem=cpu_mem, sc_mem=sc_mem)
                cpu_mem = sc_mem = 0.0
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
        cpu_pend, sc_pend = s.take_pending()
        with self.burst() as burst:
            if not keys.size:
                return 0
            lo = graph.indptr[keys]
            degree = (graph.indptr[keys + 1] - lo).tolist()
            end = graph.edge_keys.searchsorted(keys * graph.num_vertices
                                               + keys)
            below = [graph.indices[i:j]
                     for i, j in zip(lo.tolist(), end.tolist())]
            found = np.concatenate(below)
            total = int(np.count_nonzero(
                keys.take(keys.searchsorted(found), mode="clip") == found))
            observed = self.obs.enabled
            load_stream, defer = self.transfer.load_stream, self._defer
            edges, kind = ("edges", id(graph)), OpKind.INTERSECT
            for i, s_i in enumerate(keys.tolist()):
                granule, nbytes = edges + (s_i,), degree[i] * KEY_BYTES
                cost = load_stream(granule, nbytes, 0)
                if observed:
                    self._observe_load(granule, nbytes, cost.scratchpad_hit)
                defer(kind, keys[:i], below[i], burst=burst, nested=True,
                      cpu_mem=cost.cpu_cycles + cpu_pend,
                      sc_mem=cost.sc_cycles + sc_pend)
                cpu_pend = sc_pend = 0.0
            self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS * keys.size)
            if self.record_lengths:
                for size in degree:
                    self.length_samples += (keys.size, size)
        return total
