"""The recording machine context.

:class:`Machine` exposes the stream ISA at function-call granularity:
``load``/``load_values`` stand in for ``S_READ``/``S_VREAD``,
``intersect``/``subtract``/``merge`` (and ``*_count``) for the compute
instructions, ``vinter``/``vmerge`` for the value instructions, and
``nest_intersect`` for ``S_NESTINTER``.  Each call returns the
functional result and appends one record to the trace; stream loads
charge the paired CPU/SparseCore memory models at the moment the data
would move.  ``vinter_sweep`` records a whole row of ``S_VREAD`` +
``S_VINTER`` pairs in one call, exactly as the per-pair calls would.
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
from repro.streams.runstats import UNBOUNDED
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

    def _record(self, kind: OpKind, a: StreamOperand, b: StreamOperand,
                bound: int, *, nested: bool = False,
                flop_pairs: int = 0, extra_mem: tuple[float, float] = (0, 0)):
        """Record one op; its merge-run analysis is deferred to the
        trace, so count ops answer through the functional kernels."""
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
        self._defer(kind, a.keys, b.keys, bound, burst=self._burst,
                    nested=nested, cpu_mem=cpu_mem, sc_mem=sc_mem,
                    flop_pairs=flop_pairs)
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS
        if self.record_lengths:
            self._append_length(a.keys.size)
            self._append_length(b.keys.size)

    def intersect(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.INTERSECT, a, b, bound)
        return StreamOperand(ops.intersect(a.keys, b.keys, bound))

    def intersect_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.INTERSECT, a, b, bound)
        return ops.intersect_count(a.keys, b.keys, bound)

    def subtract(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.SUBTRACT, a, b, bound)
        return StreamOperand(ops.subtract(a.keys, b.keys, bound))

    def subtract_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.SUBTRACT, a, b, bound)
        return ops.subtract_count(a.keys, b.keys, bound)

    def merge(self, a, b) -> StreamOperand:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.MERGE, a, b, UNBOUNDED)
        return StreamOperand(ops.merge(a.keys, b.keys))

    def merge_count(self, a, b) -> int:
        a, b = self._coerce(a), self._coerce(b)
        self._record(OpKind.MERGE, a, b, UNBOUNDED)
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
        n_matches = ops.intersect_count(a.keys, b.keys, bound)
        ga = self._gather_values(a, n_matches)
        gb = self._gather_values(b, n_matches)
        self._record(OpKind.VINTER, a, b, bound, flop_pairs=n_matches,
                     extra_mem=(ga[0] + gb[0], ga[1] + gb[1]))
        return ops.vinter(a.keys, av, b.keys, bv, op, bound)

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
        self._record(OpKind.VMERGE, a, b, UNBOUNDED, flop_pairs=n_out,
                     extra_mem=(ga[0] + gb[0], ga[1] + gb[1]))
        return StreamOperand(keys, vals)

    # -- nested intersection (S_NESTINTER) ------------------------------------------

    def nest_intersect(self, s: StreamOperand, graph) -> int:
        """``S_NESTINTER``: sum of |S ∩ N(s_i)| bounded by each s_i.

        The dependent edge-list streams are generated by the processor
        from the GFRs; the translator's sub-ops all share one burst and
        carry no scalar loop overhead on SparseCore (the CPU runs the
        explicit loop instead)."""
        s = self._coerce(s)
        total = 0
        cpu_pend, sc_pend = s.take_pending()
        defer = self._defer
        with self.burst():
            for s_i in s.keys.tolist():
                nbr = self.neighbors(graph, s_i)
                cpu_n, sc_n = nbr.take_pending()
                defer(OpKind.INTERSECT, s.keys, nbr.keys, s_i,
                      burst=self._burst, nested=True,
                      cpu_mem=cpu_n + cpu_pend, sc_mem=sc_n + sc_pend)
                total += ops.intersect_count(s.keys, nbr.keys, s_i)
                cpu_pend = sc_pend = 0.0
                self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS)
                if self.record_lengths:
                    self.length_samples.append(len(s))
                    self.length_samples.append(len(nbr))
        return total
