"""Tests for the functional instruction-level executor."""

import numpy as np
import pytest

from repro.arch import SimMemory, StreamExecutor
from repro.arch.trace import _ARRAY_FIELDS, _SCALAR_FIELDS
from repro.errors import (
    ArchFault,
    GfrNotLoadedFault,
    StreamRegisterPressureFault,
    StreamTypeFault,
    UnknownStreamFault,
)
from repro.graph import CSRGraph
from repro.isa import EOS, Opcode, assemble
from repro.isa.spec import Instruction
from repro.difftest.invariants import oracle_costs
from tests.recorders import RowsTrace


def I(opcode, *ops):
    return Instruction(opcode, tuple(ops))


@pytest.fixture
def machine():
    mem = SimMemory()
    a = np.array([1, 3, 7, 9], dtype=np.int64)
    b = np.array([2, 3, 9, 11], dtype=np.int64)
    av = np.array([1.0, 2.0, 3.0, 4.0])
    bv = np.array([10.0, 20.0, 30.0, 40.0])
    addrs = {
        "a": mem.register(a, "a"),
        "b": mem.register(b, "b"),
        "av": mem.register(av, "av"),
        "bv": mem.register(bv, "bv"),
    }
    return StreamExecutor(mem), addrs


class TestStreamLifecycle:
    def test_read_then_fetch(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_FETCH, 1, 2, "R0"))
        assert ex.regs["R0"] == 7

    def test_fetch_past_end_returns_eos(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_FETCH, 1, 99, "R0"))
        assert ex.regs["R0"] == EOS

    def test_free_releases(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_FREE, 1))
        with pytest.raises(UnknownStreamFault):
            ex.execute(I(Opcode.S_FETCH, 1, 0, "R0"))

    def test_free_unknown_faults(self, machine):
        ex, _ = machine
        with pytest.raises(UnknownStreamFault):
            ex.execute(I(Opcode.S_FREE, 42))

    def test_register_pressure_stall(self, machine):
        ex, at = machine
        for sid in range(16):
            ex.execute(I(Opcode.S_READ, at["a"], 4, sid, 0))
        with pytest.raises(StreamRegisterPressureFault):
            ex.execute(I(Opcode.S_READ, at["a"], 4, 16, 0))

    def test_same_sid_reuse_across_iterations(self, machine):
        ex, at = machine
        for _ in range(40):  # far more iterations than stream registers
            ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
            ex.execute(I(Opcode.S_FREE, 1))
        assert ex.smt.num_active == 0

    def test_redefine_same_active_sid(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 1, 0))  # overwrite
        ex.execute(I(Opcode.S_FETCH, 1, 0, "R0"))
        assert ex.regs["R0"] == 2
        assert ex.smt.num_active == 1


class TestComputeOps:
    def test_intersection(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_INTER, 1, 2, 3, -1))
        ex.execute(I(Opcode.S_FETCH, 3, 0, "R0"))
        ex.execute(I(Opcode.S_FETCH, 3, 1, "R1"))
        assert (ex.regs["R0"], ex.regs["R1"]) == (3, 9)

    def test_intersection_count(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_INTER_C, 1, 2, "R4", -1))
        assert ex.regs["R4"] == 2

    def test_bounded_intersection(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_INTER_C, 1, 2, "R4", 9))
        assert ex.regs["R4"] == 1  # only 3 < 9

    def test_subtraction(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_SUB, 1, 2, 3, -1))
        ex.execute(I(Opcode.S_FETCH, 3, 0, "R0"))
        ex.execute(I(Opcode.S_FETCH, 3, 1, "R1"))
        assert (ex.regs["R0"], ex.regs["R1"]) == (1, 7)

    def test_sub_count(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_SUB_C, 1, 2, "R0", -1))
        assert ex.regs["R0"] == 2

    def test_merge_and_count(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_MERGE, 1, 2, 3))
        ex.execute(I(Opcode.S_MERGE_C, 1, 2, "R0"))
        assert ex.regs["R0"] == 6
        ex.execute(I(Opcode.S_FETCH, 3, 5, "R1"))
        assert ex.regs["R1"] == 11

    def test_result_stream_usable_as_input(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_READ, at["b"], 4, 2, 0))
        ex.execute(I(Opcode.S_INTER, 1, 2, 3, -1))      # [3, 9]
        ex.execute(I(Opcode.S_SUB, 1, 3, 4, -1))        # a - [3,9] = [1,7]
        ex.execute(I(Opcode.S_FETCH, 4, 1, "R0"))
        assert ex.regs["R0"] == 7
        # dependency recorded in the SMT
        assert ex.smt.lookup(3).pred0 == 1
        assert ex.smt.lookup(3).pred1 == 2

    def test_operands_via_registers(self, machine):
        ex, at = machine
        ex.regs["R1"] = at["a"]
        ex.regs["R2"] = 4
        ex.execute(I(Opcode.S_READ, "R1", "R2", 1, 0))
        ex.execute(I(Opcode.S_FETCH, 1, 0, "R0"))
        assert ex.regs["R0"] == 1

    def test_dst_must_be_register(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        with pytest.raises(ArchFault, match="register"):
            ex.execute(I(Opcode.S_FETCH, 1, 0, 5))


class TestValueOps:
    def test_vinter_mac(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_VREAD, at["a"], 4, 1, at["av"], 0))
        ex.execute(I(Opcode.S_VREAD, at["b"], 4, 2, at["bv"], 0))
        ex.execute(I(Opcode.S_VINTER, 1, 2, "R0", "MAC"))
        # matches: key 3 (2.0*20.0) and key 9 (4.0*30.0)
        assert ex.regs["R0"] == 160.0

    def test_vinter_on_key_stream_faults(self, machine):
        # Section 3.3: "If any input stream ID is not a (key,value)
        # stream, an exception is raised."
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        ex.execute(I(Opcode.S_VREAD, at["b"], 4, 2, at["bv"], 0))
        with pytest.raises(StreamTypeFault):
            ex.execute(I(Opcode.S_VINTER, 1, 2, "R0", "MAC"))

    def test_vmerge(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_VREAD, at["a"], 4, 1, at["av"], 0))
        ex.execute(I(Opcode.S_VREAD, at["b"], 4, 2, at["bv"], 0))
        ex.execute(I(Opcode.S_VMERGE, 2.0, 1.0, 1, 2, 3))
        ex.execute(I(Opcode.S_MERGE_C, 1, 2, "R0"))
        ex.execute(I(Opcode.S_FETCH, 3, 1, "R1"))  # key 2 from b
        assert ex.regs["R1"] == 2
        # merged stream usable in further value computation
        ex.execute(I(Opcode.S_VINTER, 3, 2, "R2", "MAC"))
        # out = 2*a + 1*b = {1:2, 2:10, 3:24, 7:6, 9:38, 11:40};
        # common keys with b: 2,3,9,11.
        assert ex.regs["R2"] == 10 * 10 + 24 * 20 + 38 * 30 + 40 * 40


class TestNestedIntersection:
    def build_graph_machine(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                    (2, 4)])
        mem = SimMemory()
        at = {
            "indptr": mem.register(g.indptr, "indptr"),
            "edges": mem.register(g.indices, "edges"),
            "offsets": mem.register(g.offsets, "offsets"),
        }
        return g, mem, StreamExecutor(mem), at

    def test_requires_gfr(self, machine):
        ex, at = machine
        ex.execute(I(Opcode.S_READ, at["a"], 4, 1, 0))
        with pytest.raises(GfrNotLoadedFault):
            ex.execute(I(Opcode.S_NESTINTER, 1, "R0"))

    def test_counts_triangles_three_times(self):
        # Sum over v0 of bounded nested intersection counts each triangle
        # exactly 3 times (once per anchor vertex).
        g, mem, ex, at = self.build_graph_machine()
        ex.execute(I(Opcode.S_LD_GFR, at["indptr"], at["edges"],
                     at["offsets"]))
        total = 0
        for v in g.vertices():
            lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
            addr = mem.element_address(at["edges"], lo)
            ex.execute(I(Opcode.S_READ, addr, hi - lo, 1, 0))
            ex.execute(I(Opcode.S_NESTINTER, 1, "R0"))
            ex.execute(I(Opcode.S_FREE, 1))
            total += int(ex.regs["R0"])
        assert total == 3 * 2  # two triangles: (0,1,2) and (2,3,4)

    def test_nested_ops_traced_as_burst(self):
        g, mem, ex, at = self.build_graph_machine()
        ex.execute(I(Opcode.S_LD_GFR, at["indptr"], at["edges"],
                     at["offsets"]))
        lo, hi = int(g.indptr[2]), int(g.indptr[3])
        addr = mem.element_address(at["edges"], lo)
        ex.execute(I(Opcode.S_READ, addr, hi - lo, 1, 0))
        ex.execute(I(Opcode.S_NESTINTER, 1, "R0"))
        f = ex.trace.freeze()
        assert f.nested.sum() == g.degree(2)
        assert len(set(f.burst[f.nested].tolist())) == 1


class TestProgramsAndReports:
    def test_run_assembled_program(self, machine):
        ex, at = machine
        program = assemble(
            f"""
            S_READ {at['a']}, 4, 1, 0
            S_READ {at['b']}, 4, 2, 0
            S_INTER.C 1, 2, R7, -1
            S_FREE 1
            S_FREE 2
            """
        )
        regs = ex.run(program)
        assert regs["R7"] == 2
        assert ex.instructions_executed == 5

    def test_report_totals_positive(self, machine):
        ex, at = machine
        ex.run(assemble(
            f"""
            S_READ {at['a']}, 4, 1, 0
            S_READ {at['b']}, 4, 2, 0
            S_INTER.C 1, 2, R7, -1
            """
        ))
        rep = ex.report()
        assert rep.total_cycles > 0
        assert rep.machine == "sparsecore"


# -- the recorder against the per-op reference -----------------------------


def _sorted_keys(rng, universe, n):
    return np.sort(rng.choice(universe, size=n, replace=False)).astype(
        np.int64)


def _record(program, reference, virtualize=False):
    """Run ``program(ex, mem)`` on a fresh executor; with ``reference``
    its recorder is the per-op :class:`RowsTrace`."""
    mem = SimMemory()
    ex = StreamExecutor(mem, virtualize=virtualize)
    if reference:
        ex.trace = RowsTrace("executor", width=ex.config.su_buffer_width,
                             log=ex.transfer)
    program(ex, mem)
    return ex


def _assert_matches_reference(program, virtualize=False):
    got = _record(program, False, virtualize)
    want = _record(program, True, virtualize)
    trace, ref = got.trace.freeze(), want.trace.freeze()
    assert trace.num_ops == ref.num_ops > 0
    for field in _ARRAY_FIELDS:
        col, ref_col = getattr(trace, field), getattr(ref, field)
        assert col.dtype == ref_col.dtype, field
        assert col.tobytes() == ref_col.tobytes(), field
    for field in _SCALAR_FIELDS:
        assert getattr(trace, field) == getattr(ref, field), field
    assert got.regs == want.regs
    report, ref_report = got.report(), want.report()
    assert report.total_cycles == ref_report.total_cycles
    assert report.breakdown() == ref_report.breakdown()
    return got


def _set_ops(ex, mem):
    rng = np.random.default_rng(0)
    a, b = _sorted_keys(rng, 200, 60), _sorted_keys(rng, 200, 70)
    ex.execute(I(Opcode.S_READ, mem.register(a, "a"), a.size, 1, 0))
    ex.execute(I(Opcode.S_READ, mem.register(b, "b"), b.size, 2, 1))
    for bound in (-1, 0, 120, 500):
        for op in (Opcode.S_INTER, Opcode.S_SUB):
            ex.execute(I(op, 1, 2, 3, bound))
            ex.execute(I(Opcode.S_INTER_C, 3, 1, "R3", -1))
            ex.execute(I(Opcode.S_FREE, 3))
        ex.execute(I(Opcode.S_INTER_C, 1, 2, "R0", bound))
        ex.execute(I(Opcode.S_SUB_C, 2, 1, "R1", bound))
    ex.execute(I(Opcode.S_MERGE, 1, 2, 3))
    ex.execute(I(Opcode.S_MERGE_C, 3, 1, "R2"))


def _value_ops(ex, mem):
    rng = np.random.default_rng(1)
    a, b = _sorted_keys(rng, 100, 40), _sorted_keys(rng, 100, 50)
    av, bv = rng.standard_normal(a.size), rng.standard_normal(b.size)
    ex.execute(I(Opcode.S_VREAD, mem.register(a, "a"), a.size, 1,
                 mem.register(av, "av"), 1))
    ex.execute(I(Opcode.S_VREAD, mem.register(b, "b"), b.size, 2,
                 mem.register(bv, "bv"), 0))
    ex.execute(I(Opcode.S_VINTER, 1, 2, "F0", "MAC"))
    ex.execute(I(Opcode.S_VMERGE, 2.0, -1.0, 1, 2, 3))
    ex.execute(I(Opcode.S_VINTER, 3, 1, "F1", "MAC"))
    ex.execute(I(Opcode.S_VINTER, 2, 3, "F2", "MAX"))


def _nested(ex, mem):
    g = CSRGraph.from_edges(8, [(u, v) for u in range(8)
                                for v in range(u + 1, 8) if (u * v) % 3])
    at = [mem.register(arr, name) for arr, name in
          ((g.indptr, "indptr"), (g.indices, "edges"),
           (g.offsets, "offsets"))]
    ex.execute(I(Opcode.S_LD_GFR, *at))
    for v in g.vertices():
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        ex.execute(I(Opcode.S_READ, mem.element_address(at[1], lo),
                     hi - lo, 1, 0))
        ex.execute(I(Opcode.S_NESTINTER, 1, "R0"))
        ex.execute(I(Opcode.S_INTER_C, 1, 1, "R1", v))
        ex.execute(I(Opcode.S_FREE, 1))


def _spilling(ex, mem):
    for sid in range(20):
        ex.execute(I(Opcode.S_READ, mem.register(
            np.arange(sid, 3 * sid + 8, 2, dtype=np.int64), f"s{sid}"),
            sid + 4, sid, sid % 2))
    for sid in range(0, 20, 3):  # the early streams were spilled
        ex.execute(I(Opcode.S_INTER_C, sid, 19 - sid, "R0", -1))
        ex.execute(I(Opcode.S_MERGE, sid, 19 - sid, 20 + sid))


class TestRecorderMatchesPerOpReference:
    """The executor's ColumnarTrace records what the per-op Trace +
    analyze_pair reference records, byte for byte."""

    def test_set_ops_with_and_without_bounds(self):
        got = _assert_matches_reference(_set_ops)
        assert set(got.trace.freeze().kind.tolist()) == {0, 1, 2}

    def test_value_ops_on_vread_streams(self):
        got = _assert_matches_reference(_value_ops)
        assert got.trace.freeze().flop_pairs.sum() > 0

    def test_nested_intersection(self):
        got = _assert_matches_reference(_nested)
        frozen = got.trace.freeze()
        assert frozen.nested.any() and not frozen.nested.all()
        assert len(set(frozen.burst[frozen.nested].tolist())) > 1

    def test_virtualized_program_spills_and_swaps_in(self):
        got = _assert_matches_reference(_spilling, virtualize=True)
        assert got.spills > 0 and got.swap_ins > 0

    def test_spilled_first_load_keeps_its_charge(self):
        # Stream 0's load is log row 0 (a falsy index).  It is spilled
        # before any op takes its charge; swapped back in, the stream
        # must still carry row 0's charge, not its swap-in load's.
        mem = SimMemory()
        ex = StreamExecutor(mem, virtualize=True)
        n = ex.config.num_stream_regs
        for sid in range(n + 1):
            ex.execute(I(Opcode.S_READ, mem.register(
                np.arange(sid, sid + 40, dtype=np.int64), f"s{sid}"),
                40, sid, 0))
        assert ex.spills == 1 and ex.swap_ins == 0
        ex.execute(I(Opcode.S_INTER_C, 0, n, "R0", -1))
        assert ex.swap_ins == 1
        rows = ex.transfer.rows()
        costs = oracle_costs(rows, ex.config)
        read = [i for i, (key, _, _) in enumerate(rows) if key[0] == "key"]
        swap_in = [i for i, (key, _, _) in enumerate(rows)
                   if key == ("spill", 0)][-1]
        frozen = ex.trace.freeze()
        assert read[0] == 0 and frozen.num_ops == 1
        for side, col in enumerate((frozen.cpu_mem, frozen.sc_mem)):
            assert col[0] == 0.0 + costs[0][side] + costs[read[n]][side]
        # The swap-in load (an L1 hit on the spill) costs something else.
        assert costs[swap_in][0] != costs[0][0]
