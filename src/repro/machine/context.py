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
from repro.arch.trace import NO_BURST, OpKind, su_cycles_for
from repro.arch.transfer import TransferModel
from repro.errors import StreamTypeFault
from repro.obs.probe import NULL_PROBE, Probe
from repro.record.columnar import ColumnarTrace
from repro.streams import ops
from repro.streams.runstats import UNBOUNDED, analyze_pair
from repro.streams.stream import KEY_BYTES

_VALUE_BYTES = 8

#: Scalar instructions the CPU's explicit inner loop needs per nested
#: sub-intersection (loop bookkeeping, bounds check, address generation)
#: that S_NESTINTER eliminates (Section 6.3.2).
CPU_NESTED_LOOP_INSTRS = 8

#: Scalar instructions both machines spend setting up one stream op
#: (operand addresses, call overhead of the generated code).
OP_SETUP_INSTRS = 4


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

    __slots__ = ("config", "obs", "trace", "transfer", "_burst", "_width",
                 "record_lengths", "length_samples", "_clock",
                 "_append_length", "_defer")

    def __init__(self, config: SparseCoreConfig | None = None,
                 name: str = "run", record_lengths: bool = False,
                 probe: Probe | None = None):
        self.config = config or SparseCoreConfig()
        self.obs = probe or NULL_PROBE
        self._width = self.config.su_buffer_width
        self.trace = ColumnarTrace(name, width=self._width)
        self.transfer = TransferModel(self.config, self.obs.counters)
        self._burst = NO_BURST
        self.record_lengths = record_lengths
        #: operand-length samples for the Figure 14 CDFs
        self.length_samples: list[int] = []
        #: tracer time axis: a sequential model-cycle clock (ops advance
        #: it by their SU time, stalls by their charged cycles)
        self._clock = 0.0
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
            cost = self.transfer.load_stream(
                granule, keys.size * KEY_BYTES, priority)
            operand.pending_cpu = cost.cpu_cycles
            operand.pending_sc = cost.sc_cycles
            if self.obs.enabled:
                counters = self.obs.counters
                if counters.enabled:
                    counters.inc("machine.stream_loads")
                    counters.add("machine.stream_bytes",
                                 keys.size * KEY_BYTES)
                tracer = self.obs.tracer
                if tracer.enabled:
                    tracer.instant("fetch " + granule[0], "fetch",
                                   self._clock, tid=1,
                                   granule=repr(granule),
                                   bytes=keys.size * KEY_BYTES,
                                   scratchpad_hit=cost.scratchpad_hit)
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
        self._burst = self.trace.new_burst()
        burst_id = self._burst
        start_clock = self._clock
        start_ops = self.trace.num_ops
        try:
            yield self._burst
        finally:
            self._burst = prev
            if self.obs.enabled:
                if self.obs.counters.enabled:
                    self.obs.counters.inc("machine.bursts")
                tracer = self.obs.tracer
                if tracer.enabled and self.trace.num_ops > start_ops:
                    tracer.span(f"burst {burst_id}", "burst", start_clock,
                                self._clock - start_clock, tid=2,
                                ops=self.trace.num_ops - start_ops)

    # -- scalar accounting -------------------------------------------------------

    def scalar(self, n: int) -> None:
        self.trace.add_scalar(n)

    def cpu_loop(self, n: int) -> None:
        self.trace.add_cpu_scalar(n)

    def sc_loop(self, n: int) -> None:
        self.trace.add_sc_scalar(n)

    # -- observability -----------------------------------------------------------

    def _observe_op(self, kind: OpKind, stats, *, nested: bool = False,
                    cpu_mem: float = 0.0, sc_mem: float = 0.0,
                    flop_pairs: int = 0) -> None:
        """Count and trace one recorded stream operation.

        Called only when ``self.obs.enabled`` — a run without a probe
        pays a single attribute check per op.
        """
        su = su_cycles_for(kind, stats)
        name = kind.name.lower()
        counters = self.obs.counters
        if counters.enabled:
            counters.inc(f"machine.ops.{name}")
            if nested:
                counters.inc("machine.ops.nested")
            counters.add("su.busy_cycles", su)
            counters.add("machine.matches", stats.n_matches)
            counters.add("machine.eff_elems", stats.eff_a + stats.eff_b)
            if sc_mem:
                counters.add("machine.sc_stall_cycles", sc_mem)
            if cpu_mem:
                counters.add("machine.cpu_stall_cycles", cpu_mem)
            if flop_pairs:
                counters.add("svpu.flop_pairs", flop_pairs)
                counters.add("svpu.value_loads", 1)
        tracer = self.obs.tracer
        if tracer.enabled:
            # SVPU FLOPs overlap the SU key walk (Section 4.5): the
            # span covers whichever side dominates, as the model does.
            dur = max(su, flop_pairs * self.config.flop_cycles_per_pair)
            tracer.span(name, "su", self._clock, dur, tid=0,
                        burst=self._burst, matches=stats.n_matches,
                        eff_elems=stats.eff_a + stats.eff_b)
            if sc_mem > 0:
                tracer.span("stall", "stall", self._clock + dur, sc_mem,
                            tid=1, cycles=sc_mem)
            self._clock += dur + sc_mem
        else:
            self._clock += su + sc_mem

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
        if self.obs.enabled:
            # Profiled runs observe per-op stats eagerly; the trace
            # itself stays deferred (identical frozen output).
            stats = analyze_pair(a.keys, b.keys, bound, width=self._width)
            self._observe_op(kind, stats, nested=nested,
                             cpu_mem=cpu_mem, sc_mem=sc_mem,
                             flop_pairs=flop_pairs)
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
        if self.obs.enabled:
            # Profiled runs keep the per-op counters and tracer events.
            return np.array([
                self.vinter(a, self.load_values(k, v, g, priority), "MAC")
                for k, v, g in zip(keys, vals, granules)], dtype=np.float64)
        counts, values = ops.vinter_mac_sweep(a.keys, av, keys, vals)
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
                cost = load_stream(granule, b_keys.size * KEY_BYTES,
                                   priority)
                b_cpu, b_sc = cost.cpu_cycles, cost.sc_cycles
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
                if self.obs.enabled:
                    stats = analyze_pair(s.keys, nbr.keys, bound=s_i,
                                         width=self._width)
                    self._observe_op(OpKind.INTERSECT, stats, nested=True,
                                     cpu_mem=cpu_n + cpu_pend,
                                     sc_mem=sc_n + sc_pend)
                total += ops.intersect_count(s.keys, nbr.keys, s_i)
                cpu_pend = sc_pend = 0.0
                self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS)
                if self.record_lengths:
                    self.length_samples.append(len(s))
                    self.length_samples.append(len(nbr))
        return total
