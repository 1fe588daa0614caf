"""Functional instruction-level executor for stream-ISA programs.

The executor plays the role of zSim's modified core for *programs*: it
decodes :class:`~repro.isa.spec.Instruction` sequences, maintains the
SMT / stream registers / GFRs / S-Cache / scratchpad exactly as
Section 4 describes, computes every result functionally, raises the
architectural faults of Sections 3.3 and 5.1, and records a cycle
trace costed by :class:`~repro.arch.sparsecore.SparseCoreModel`.

Scalar state is a flat register file (``R0``-``R31`` integers,
``F0``-``F7`` floats); the host program (Python, standing in for the
general-purpose core) reads results out of it.  This is the engine the
ISA-level tests and the ``isa_programming`` example drive; full
applications use the higher-level recording machine in
:mod:`repro.machine`, which skips per-instruction bookkeeping.

Both record into the same deferred-analysis
:class:`~repro.record.columnar.ColumnarTrace`, which holds each op's
key arrays by reference until it analyses them.  Stream operands are
views of the arrays registered in :class:`SimMemory`, so those arrays
must not change while a trace is open — the stream contract the
recording machine relies on too.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.scache import StreamCache
from repro.arch.simmem import SimMemory
from repro.arch.smt import StreamMappingTable
from repro.arch.sparsecore import SparseCoreModel
from repro.arch.stream_regs import GraphFormatRegisters, StreamRegisterFile
from repro.arch.trace import CycleReport, OpKind
from repro.arch.transfer import TransferModel
from repro.errors import (
    ArchFault,
    StreamRegisterPressureFault,
    StreamTypeFault,
)
from repro.isa.assembler import is_register
from repro.isa.program import Program
from repro.isa.spec import EOS, Instruction, Opcode
from repro.obs.probe import NULL_PROBE, Probe
from repro.record.columnar import ColumnarTrace
from repro.streams import ops
from repro.streams.stream import KEY_BYTES

_VALUE_BYTES = 8


class StreamExecutor:
    """Executes stream-ISA instructions against a :class:`SimMemory`."""

    def __init__(self, memory: SimMemory,
                 config: SparseCoreConfig | None = None,
                 *, virtualize: bool = False,
                 probe: Probe | None = None):
        self.memory = memory
        self.config = config or SparseCoreConfig()
        self.obs = probe or NULL_PROBE
        counters = self.obs.counters
        self.smt = StreamMappingTable(self.config.num_stream_regs,
                                      counters=counters)
        self.sregs = StreamRegisterFile(self.config.num_stream_regs)
        self.gfrs = GraphFormatRegisters()
        self.scache = StreamCache(self.config.num_stream_regs,
                                  self.config.scache_slot_keys,
                                  counters=counters)
        self.transfer = TransferModel(self.config, counters)
        self.trace = ColumnarTrace("executor",
                                   width=self.config.su_buffer_width,
                                   log=self.transfer)
        self.regs: dict[str, float] = {}
        self.instructions_executed = 0
        # Per stream register: live key/value data and the access-log
        # row of the load whose charge the first op consuming the stream
        # takes.
        self._keys: dict[int, np.ndarray] = {}
        self._vals: dict[int, np.ndarray | None] = {}
        self._pending_mem: dict[int, int] = {}
        # Stream virtualization (Section 4.1): when enabled, defining a
        # stream with every register active spills the least recently
        # used stream to a special memory region instead of stalling.
        self.virtualize = virtualize
        self._spilled: dict[int, dict] = {}
        self._touch_clock = 0
        self._last_touch: dict[int, int] = {}
        self.spills = 0
        self.swap_ins = 0
        # Precise exceptions for the multi-uop S_NESTINTER (Section
        # 5.1): a checkpoint is taken before translation; a fault rolls
        # the architectural state back.
        self.checkpoints_taken = 0
        self.rollbacks = 0

    # -- register file -----------------------------------------------------

    def read(self, operand) -> float:
        """Resolve an operand: register content or immediate."""
        if is_register(operand):
            return self.regs.get(operand, 0)
        return operand

    def write_reg(self, operand, value) -> None:
        if not is_register(operand):
            raise ArchFault(
                f"destination operand must be a scalar register, got {operand!r}"
            )
        self.regs[operand] = value

    # -- program driving ------------------------------------------------------

    def run(self, program: Program | list[Instruction]) -> dict[str, float]:
        """Execute every instruction; returns the scalar register file."""
        for instr in program:
            self.execute(instr)
        return dict(self.regs)

    def execute(self, instr: Instruction) -> None:
        handler = self._HANDLERS[instr.opcode]
        handler(self, instr)
        self.instructions_executed += 1
        if self.obs.counters.enabled:
            self.obs.counters.inc(
                f"isa.{instr.opcode.name.lower()}")

    def report(self) -> CycleReport:
        """Cost the recorded trace on the SparseCore model (pricing the
        whole access log, so a probe has counted every access)."""
        report = SparseCoreModel(self.config).cost(self.trace)
        self.transfer.price()
        return report

    # -- helpers --------------------------------------------------------------

    def _entry(self, sid: int):
        sid = int(sid)
        if sid in self._spilled:
            self._swap_in(sid)
        self._touch_clock += 1
        self._last_touch[sid] = self._touch_clock
        return self.smt.lookup(sid)

    # -- stream virtualization (Section 4.1) --------------------------------

    def _spill_victim(self, exclude: frozenset[int]) -> None:
        """Spill the least-recently-used active stream to memory."""
        candidates = [
            e for e in self.smt.entries if e.vd and e.sid not in exclude
        ]
        if not candidates:
            raise StreamRegisterPressureFault(
                "stream virtualization deadlock: every register is held "
                "by the current instruction's operands"
            )
        victim = min(candidates,
                     key=lambda e: self._last_touch.get(e.sid, 0))
        sreg = self.sregs[victim.sreg]
        self._spilled[victim.sid] = {
            "keys": self._keys.get(victim.sreg),
            "vals": self._vals.get(victim.sreg),
            "length": sreg.length,
            "key_addr": sreg.key_addr,
            "value_addr": sreg.value_addr,
            "priority": sreg.priority,
            "pending": self._pending_mem.pop(victim.sreg, None),
        }
        nbytes = (self._keys.get(victim.sreg, np.empty(0)).size
                  * KEY_BYTES)
        self.transfer.load_stream(("spill", victim.sid), nbytes, 0)
        self.trace.add_sc_scalar(4)
        sid = victim.sid
        self.smt.free(sid)
        self.sregs.release(sreg.index)
        self.scache.release(sreg.index)
        self._keys.pop(sreg.index, None)
        self._vals.pop(sreg.index, None)
        self.spills += 1
        if self.obs.counters.enabled:
            self.obs.counters.inc("smt.evictions")

    def _swap_in(self, sid: int) -> None:
        """Restore a spilled stream into a register (spilling another
        stream if necessary)."""
        saved = self._spilled.pop(sid)
        row = self.transfer.load_stream(
            ("spill", sid),
            (saved["keys"].size if saved["keys"] is not None else 0)
            * KEY_BYTES,
            saved["priority"],
        )
        self._define_stream(
            sid, saved["keys"], saved["vals"],
            key_addr=saved["key_addr"], value_addr=saved["value_addr"],
            length=saved["length"], priority=saved["priority"],
            exclude=frozenset(),
        )
        entry = self.smt.lookup(sid)
        entry.start = True
        entry.produced = True
        sreg = entry.sreg
        # A load whose charge no op took yet keeps it (row 0 too);
        # otherwise the swap-in's own load is charged.
        if saved["pending"] is not None:
            self._pending_mem[sreg] = saved["pending"]
        else:
            self._pending_mem[sreg] = row
        self.swap_ins += 1
        if self.obs.counters.enabled:
            self.obs.counters.inc("smt.swap_ins")

    # -- precise exceptions (Section 5.1) ---------------------------------

    def _checkpoint(self) -> dict:
        import copy

        self.checkpoints_taken += 1
        if self.obs.counters.enabled:
            self.obs.counters.inc("executor.checkpoints")
        return {
            "regs": dict(self.regs),
            "smt": copy.deepcopy(self.smt.entries),
            "sregs": copy.deepcopy(self.sregs.regs),
            "gfrs": copy.deepcopy(self.gfrs),
            "keys": dict(self._keys),
            "vals": dict(self._vals),
            "pending": dict(self._pending_mem),
            "spilled": {k: dict(v) for k, v in self._spilled.items()},
        }

    def _rollback(self, snapshot: dict) -> None:
        self.regs = snapshot["regs"]
        self.smt.entries = snapshot["smt"]
        self.sregs.regs = snapshot["sregs"]
        self.gfrs = snapshot["gfrs"]
        self._keys = snapshot["keys"]
        self._vals = snapshot["vals"]
        self._pending_mem = snapshot["pending"]
        self._spilled = snapshot["spilled"]
        self.rollbacks += 1
        if self.obs.counters.enabled:
            self.obs.counters.inc("executor.rollbacks")

    def _stream_keys(self, sid: int) -> np.ndarray:
        return self._keys[self._entry(sid).sreg]

    def _stream_values(self, sid: int) -> np.ndarray:
        """Values of a (key,value) stream; memory-backed values are
        fetched here — at compute time, as ``S_VREAD`` defers them."""
        entry = self._entry(sid)
        sreg = self.sregs[entry.sreg]
        vals = self._vals.get(entry.sreg)
        if vals is not None:
            return vals
        if not sreg.has_values:
            raise StreamTypeFault(
                f"stream {sid} is a key stream; a (key,value) stream is required"
            )
        return self.memory.view(sreg.value_addr, sreg.length)

    def _pop_pending_mem(self, *sids: int) -> tuple:
        """Take the pending load rows of ``sids``, in order."""
        rows = ()
        for sid in sids:
            entry = self._entry(sid)
            pending = self._pending_mem.pop(entry.sreg, None)
            if pending is not None:
                rows += (pending,)
        return rows

    def _define_stream(self, sid: int, keys: np.ndarray,
                       vals: np.ndarray | None = None,
                       *, key_addr: int = 0, value_addr: int = -1,
                       length: int | None = None, priority: int = 0,
                       pred0: int = -1, pred1: int = -1,
                       exclude: frozenset[int] = frozenset()) -> int:
        sid = int(sid)
        self._spilled.pop(sid, None)  # redefinition supersedes a spill
        while True:
            try:
                entry = self.smt.define(sid, pred0=pred0, pred1=pred1)
                break
            except StreamRegisterPressureFault:
                if not self.virtualize:
                    raise
                self._spill_victim(exclude | {sid})
        length = keys.size if length is None else length
        self.sregs.setup(entry.sreg, sid, int(length), key_addr,
                         value_addr, priority)
        self._keys[entry.sreg] = keys
        self._vals[entry.sreg] = vals
        self._touch_clock += 1
        self._last_touch[sid] = self._touch_clock
        return entry.sreg

    # -- instruction handlers ----------------------------------------------

    def _s_read(self, instr: Instruction) -> None:
        addr = int(self.read(instr.operand("addr")))
        length = int(self.read(instr.operand("length")))
        sid = int(self.read(instr.operand("sid")))
        prio = int(self.read(instr.operand("prio")))
        keys = self.memory.view(addr, length)
        sreg = self._define_stream(sid, keys, key_addr=addr, priority=prio)
        entry = self.smt.lookup(sid)
        self.scache.fill_initial(sreg, length)
        entry.start = True
        entry.produced = True  # memory-backed data is available
        granule = ("key", self.memory.array_id(addr), addr)
        self._pending_mem[sreg] = self.transfer.load_stream(
            granule, length * KEY_BYTES, prio)

    def _s_vread(self, instr: Instruction) -> None:
        addr = int(self.read(instr.operand("addr")))
        length = int(self.read(instr.operand("length")))
        sid = int(self.read(instr.operand("sid")))
        vaddr = int(self.read(instr.operand("vaddr")))
        prio = int(self.read(instr.operand("prio")))
        keys = self.memory.view(addr, length)
        # Values are *not* loaded now (Section 3.3): fetch is deferred to
        # the value computation instruction.
        sreg = self._define_stream(sid, keys, None, key_addr=addr,
                                   value_addr=vaddr, length=length,
                                   priority=prio)
        entry = self.smt.lookup(sid)
        self.scache.fill_initial(sreg, length)
        entry.start = True
        entry.produced = True
        granule = ("key", self.memory.array_id(addr), addr)
        self._pending_mem[sreg] = self.transfer.load_stream(
            granule, length * KEY_BYTES, prio)

    def _s_free(self, instr: Instruction) -> None:
        sid = int(self.read(instr.operand("sid")))
        if sid in self._spilled:
            del self._spilled[sid]
            return
        sreg = self.smt.free(sid)
        self.sregs.release(sreg)
        self.scache.release(sreg)
        self._keys.pop(sreg, None)
        self._vals.pop(sreg, None)
        self._pending_mem.pop(sreg, None)

    def _s_fetch(self, instr: Instruction) -> None:
        sid = int(self.read(instr.operand("sid")))
        offset = int(self.read(instr.operand("offset")))
        keys = self._stream_keys(sid)
        value = int(keys[offset]) if 0 <= offset < keys.size else EOS
        self.write_reg(instr.operand("dst"), value)
        self.trace.add_scalar(1)

    def _binary_setop(self, instr: Instruction, kind: OpKind,
                      fn, counting: bool) -> None:
        sid_a = int(self.read(instr.operand("sid_a")))
        sid_b = int(self.read(instr.operand("sid_b")))
        bound = (int(self.read(instr.operand("bound")))
                 if "bound" in instr.spec.operand_names else ops.UNBOUNDED)
        a = self._stream_keys(sid_a)
        b = self._stream_keys(sid_b)
        self.trace.add_op_keys(kind, a, b, bound,
                               mem=self._pop_pending_mem(sid_a, sid_b))
        if counting:
            self.write_reg(instr.operand("dst"), int(fn(a, b, bound)))
        else:
            result = fn(a, b, bound)
            sid_out = int(self.read(instr.operand("sid_out")))
            sreg = self._define_stream(sid_out, result,
                                       pred0=sid_a, pred1=sid_b,
                                       exclude=frozenset((sid_a, sid_b)))
            self.scache.write_result(sreg, result.size)
            out_entry = self.smt.lookup(sid_out)
            out_entry.produced = True
            out_entry.start = self.scache.whole_stream_resident(sreg)

    def _s_inter(self, instr: Instruction) -> None:
        self._binary_setop(instr, OpKind.INTERSECT, ops.intersect, False)

    def _s_inter_c(self, instr: Instruction) -> None:
        self._binary_setop(instr, OpKind.INTERSECT, ops.intersect_count, True)

    def _s_sub(self, instr: Instruction) -> None:
        self._binary_setop(instr, OpKind.SUBTRACT, ops.subtract, False)

    def _s_sub_c(self, instr: Instruction) -> None:
        self._binary_setop(instr, OpKind.SUBTRACT, ops.subtract_count, True)

    def _s_merge(self, instr: Instruction) -> None:
        self._binary_setop(
            instr, OpKind.MERGE, lambda a, b, _bound: ops.merge(a, b), False
        )

    def _s_merge_c(self, instr: Instruction) -> None:
        self._binary_setop(
            instr, OpKind.MERGE, lambda a, b, _bound: ops.merge_count(a, b),
            True,
        )

    def _s_vinter(self, instr: Instruction) -> None:
        sid_a = int(self.read(instr.operand("sid_a")))
        sid_b = int(self.read(instr.operand("sid_b")))
        imm = instr.operand("imm")
        a_keys = self._stream_keys(sid_a)
        b_keys = self._stream_keys(sid_b)
        a_vals = self._stream_values(sid_a)
        b_vals = self._stream_values(sid_b)
        n_matches = ops.intersect_count(a_keys, b_keys)
        result = ops.vinter(a_keys, a_vals, b_keys, b_vals, str(imm))
        # The op's charge: the pending loads, then the matched values,
        # gathered through the normal hierarchy (VA_gen -> load queue ->
        # vBuf, Section 4.5).
        mem = self._pop_pending_mem(sid_a, sid_b)
        for sid in (sid_a, sid_b):
            entry = self._entry(sid)
            reg = self.sregs[entry.sreg]
            if reg.has_values and n_matches:
                granule = ("val", self.memory.array_id(reg.value_addr),
                           reg.value_addr)
                mem += (self.transfer.load_values(
                    granule, n_matches * _VALUE_BYTES),)
        self.trace.add_op_keys(OpKind.VINTER, a_keys, b_keys, mem=mem,
                               flop_pairs=n_matches)
        self.write_reg(instr.operand("dst"), float(result))

    def _s_vmerge(self, instr: Instruction) -> None:
        scale_a = float(self.read(instr.operand("scale_a")))
        scale_b = float(self.read(instr.operand("scale_b")))
        sid_a = int(self.read(instr.operand("sid_a")))
        sid_b = int(self.read(instr.operand("sid_b")))
        sid_out = int(self.read(instr.operand("sid_out")))
        a_keys = self._stream_keys(sid_a)
        b_keys = self._stream_keys(sid_b)
        a_vals = self._stream_values(sid_a)
        b_vals = self._stream_values(sid_b)
        out_keys, out_vals = ops.vmerge(scale_a, a_keys, a_vals,
                                        scale_b, b_keys, b_vals)
        self.trace.add_op_keys(OpKind.VMERGE, a_keys, b_keys,
                               mem=self._pop_pending_mem(sid_a, sid_b),
                               flop_pairs=int(out_keys.size))
        sreg = self._define_stream(sid_out, out_keys, out_vals,
                                   pred0=sid_a, pred1=sid_b,
                                   exclude=frozenset((sid_a, sid_b)))
        self.scache.write_result(sreg, out_keys.size)
        self.smt.lookup(sid_out).produced = True

    def _s_ld_gfr(self, instr: Instruction) -> None:
        self.gfrs.load(
            int(self.read(instr.operand("gfr0"))),
            int(self.read(instr.operand("gfr1"))),
            int(self.read(instr.operand("gfr2"))),
        )

    def _s_nestinter(self, instr: Instruction) -> None:
        """Nested intersection (Section 4.6): for stream S, compute
        sum_i |S ∩ N(s_i)| with each intersection bounded by s_i.

        The translator expands into a multi-uop sequence, so a register
        checkpoint is taken first; any architectural fault during the
        expansion rolls the state back before re-raising (the precise-
        exception mechanism of Section 5.1)."""
        snapshot = self._checkpoint()
        try:
            self._s_nestinter_body(instr)
        except ArchFault:
            self._rollback(snapshot)
            raise

    def _s_nestinter_body(self, instr: Instruction) -> None:
        sid = int(self.read(instr.operand("sid")))
        s = self._stream_keys(sid)
        indptr_base = self.gfrs.csr_index
        edges_base = self.gfrs.csr_edges
        burst = self.trace.new_burst()
        pending = self._pop_pending_mem(sid)
        total = 0
        for s_i in s.tolist():
            window = self.memory.view(
                self.memory.element_address(indptr_base, s_i), 2)
            lo, hi = int(window[0]), int(window[1])
            nbr_addr = self.memory.element_address(edges_base, lo)
            nbrs = (self.memory.view(nbr_addr, hi - lo)
                    if hi > lo else np.empty(0, dtype=np.int64))
            total += ops.intersect_count(s, nbrs, s_i)
            granule = ("key", self.memory.array_id(edges_base), nbr_addr)
            row = self.transfer.load_stream(granule, (hi - lo) * KEY_BYTES, 0)
            # The sub-op's load, then S's pending one.
            self.trace.add_op_keys(
                OpKind.INTERSECT, s, nbrs, s_i, burst=burst, nested=True,
                mem=(row,) + pending)
            pending = ()
            # The scalar CPU needs the explicit inner loop the nested
            # instruction eliminates (Section 6.3.2).
            self.trace.add_cpu_scalar(8)
        self.write_reg(instr.operand("dst"), total)

    _HANDLERS = {
        Opcode.S_READ: _s_read,
        Opcode.S_VREAD: _s_vread,
        Opcode.S_FREE: _s_free,
        Opcode.S_FETCH: _s_fetch,
        Opcode.S_INTER: _s_inter,
        Opcode.S_INTER_C: _s_inter_c,
        Opcode.S_SUB: _s_sub,
        Opcode.S_SUB_C: _s_sub_c,
        Opcode.S_MERGE: _s_merge,
        Opcode.S_MERGE_C: _s_merge_c,
        Opcode.S_VINTER: _s_vinter,
        Opcode.S_VMERGE: _s_vmerge,
        Opcode.S_LD_GFR: _s_ld_gfr,
        Opcode.S_NESTINTER: _s_nestinter,
    }
