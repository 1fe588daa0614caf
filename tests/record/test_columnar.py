"""The recorder: batch analyser parity, trace unit tests, and pricing.

The contract under test is exact equivalence with the per-op
reference: ``analyze_segments`` and its flat form ``analyze_flat`` must
reproduce ``analyze_pair`` value-for-value over arbitrary op batches
(including the degenerate shapes the batch offset trick has to survive
— empty operands, negative keys, huge key ranges), a ``ColumnarTrace``
fed the same op sequence as a ``Trace`` must freeze to a byte-identical
payload, blocks recorded with ``add_ops`` must freeze to the trace one
``add_op_keys`` per op gives, and every cost model must price a live
``ColumnarTrace`` exactly as its frozen copy.
"""

import io

import numpy as np
import pytest

from repro.accel import (ExTensorModel, FlexMinerModel, GammaModel,
                         GpuModel, GramerModel, OuterSpaceModel,
                         TrieJaxModel)
from repro.arch.cpu import CpuModel
from repro.arch.multicore import MultiCoreModel
from repro.arch.sparsecore import SparseCoreModel
from repro.arch.trace import OpKind, Trace
from repro.arch.transfer import TransferModel
from repro.obs.attribution import attribute
from repro.record.columnar import (COMPACT_ELEMS, ColumnarTrace,
                                   analyze_flat, analyze_segments)
from repro.streams.runstats import (SU_BUFFER_WIDTH, UNBOUNDED,
                                    analyze_pair, truncate_bound)


def _random_ops(rng, n_ops, *, lo=0, hi=4000, max_len=120, p_empty=0.08):
    """Random sorted-key op triples (a, b, bound), some sides empty."""
    ops = []
    for _ in range(n_ops):
        na = 0 if rng.random() < p_empty else int(rng.integers(1, max_len))
        nb = 0 if rng.random() < p_empty else int(rng.integers(1, max_len))
        a = np.unique(rng.integers(lo, hi, na).astype(np.int64))
        b = np.unique(rng.integers(lo, hi, nb).astype(np.int64))
        bound = int(rng.integers(max(lo, 0) + 1, hi)) \
            if rng.random() < 0.25 else UNBOUNDED
        ops.append((a, b, bound))
    return ops


def _effective(ops):
    a_eff = [truncate_bound(a, bound) for a, _, bound in ops]
    b_eff = [truncate_bound(b, bound) for _, b, bound in ops]
    return a_eff, b_eff


def _assert_matches_analyze_pair(ops, width):
    a_eff, b_eff = _effective(ops)
    eff_a, eff_b, n_union, n_matches, n_runs, su_int, su_sub = \
        analyze_segments(a_eff, b_eff, width)
    for i, (a, b, bound) in enumerate(ops):
        stats = analyze_pair(a, b, bound, width=width)
        got = (eff_a[i], eff_b[i], n_union[i], n_matches[i], n_runs[i],
               su_int[i], su_sub[i])
        want = (stats.eff_a, stats.eff_b, stats.n_union, stats.n_matches,
                stats.n_runs, stats.su_cycles_intersect,
                stats.su_cycles_submerge)
        assert got == want, f"op {i} diverges: {got} != {want}"


class TestAnalyzeSegments:
    @pytest.mark.parametrize("width", [1, 2, 7, SU_BUFFER_WIDTH])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_parity(self, seed, width):
        rng = np.random.default_rng(seed)
        _assert_matches_analyze_pair(_random_ops(rng, 64), width)

    def test_negative_keys(self):
        # The shift guard must keep offset keys strictly increasing.
        rng = np.random.default_rng(7)
        ops = _random_ops(rng, 32, lo=-500, hi=500)
        _assert_matches_analyze_pair(ops, SU_BUFFER_WIDTH)

    def test_huge_key_range_recursion(self):
        # K * n_ops would overflow int64, forcing the recursive split.
        big = np.array([0, 2 ** 61], dtype=np.int64)
        ops = [(big, big[:1], UNBOUNDED) for _ in range(8)]
        _assert_matches_analyze_pair(ops, SU_BUFFER_WIDTH)

    def test_huge_key_range_recursion_flat(self):
        # The flat form splits its operand arrays between the halves.
        rng = np.random.default_rng(5)
        ops = [(a, b, UNBOUNDED) for a, b, _ in _random_ops(rng, 9)]
        ops[4] = (np.array([3, 2 ** 61], dtype=np.int64), ops[4][1],
                  UNBOUNDED)
        a_list, b_list = [a for a, _, _ in ops], [b for _, b, _ in ops]
        cols = analyze_flat(
            np.concatenate(a_list), np.array([a.size for a in a_list]),
            np.concatenate(b_list), np.array([b.size for b in b_list]))
        for i, (a, b, _) in enumerate(ops):
            stats = analyze_pair(a, b)
            assert [int(c[i]) for c in cols] == [
                stats.eff_a, stats.eff_b, stats.n_union, stats.n_matches,
                stats.n_runs, stats.su_cycles_intersect,
                stats.su_cycles_submerge], i

    def test_empty_batch(self):
        cols = analyze_segments([], [])
        assert all(c.size == 0 for c in cols)

    def test_all_empty_operands(self):
        empty = np.empty(0, dtype=np.int64)
        cols = analyze_segments([empty] * 3, [empty] * 3)
        assert all((c == 0).all() and c.size == 3 for c in cols)

    def test_one_sided_ops(self):
        empty = np.empty(0, dtype=np.int64)
        keys = np.arange(10, dtype=np.int64)
        _assert_matches_analyze_pair(
            [(keys, empty, UNBOUNDED), (empty, keys, UNBOUNDED),
             (keys, keys, 5)], SU_BUFFER_WIDTH)


def _log_rows(log, i):
    """Op ``i``'s log rows: a value gather on odd ops, then a load."""
    mem = ()
    if i % 2:
        mem = (log.load_values(("v", i % 3), 8 * (i % 5)),)
    return mem + (log.load_stream(("g", i % 5), 8 * (i % 7), i % 2),)


def _charge(log, mem):
    cpu = sc = 0.0
    for row in mem:
        cost = log.cost(row)
        cpu += cost.cpu_cycles
        sc += cost.sc_cycles
    return cpu, sc


def _record_both(ops, **columnar_kwargs):
    """Feed one op plan to the per-op reference ``Trace`` (``rows``,
    charged its rows' summed costs) and the recorder (``cols``, charged
    by its access log); return both."""
    kinds = (OpKind.INTERSECT, OpKind.SUBTRACT, OpKind.MERGE)
    log = TransferModel()
    rows = Trace("t")
    cols = ColumnarTrace("t", log=log, **columnar_kwargs)
    for i, (a, b, bound) in enumerate(ops):
        kind = kinds[i % 3]
        mem = _log_rows(log, i)
        cpu, sc = _charge(log, mem)
        rows.add_op(kind, analyze_pair(a, b, bound), burst=i % 4,
                    nested=bool(i % 2), cpu_mem=cpu, sc_mem=sc,
                    flop_pairs=i)
        cols.add_op_keys(kind, a, b, bound, burst=i % 4,
                         nested=bool(i % 2), mem=mem, flop_pairs=i)
    return rows, cols


def _saved_bytes(trace):
    buf = io.BytesIO()
    trace.freeze().save(buf)
    return buf.getvalue()


class TestColumnarTrace:
    def test_byte_identical_to_rows(self):
        rng = np.random.default_rng(11)
        rows, cols = _record_both(_random_ops(rng, 50))
        rows.add_scalar(17), cols.add_scalar(17)
        rows.add_cpu_scalar(5), cols.add_cpu_scalar(5)
        rows.add_sc_scalar(3), cols.add_sc_scalar(3)
        assert cols.num_ops == rows.num_ops == 50
        assert _saved_bytes(rows) == _saved_bytes(cols)

    def test_compaction_preserves_bytes(self):
        # compact_elems=1 forces a compaction after every recorded op;
        # segment concatenation must not change the frozen payload.
        rng = np.random.default_rng(13)
        ops = _random_ops(rng, 40)
        _, eager = _record_both(ops, compact_elems=1)
        _, lazy = _record_both(ops)
        assert len(eager._segments) > 1
        assert _saved_bytes(eager) == _saved_bytes(lazy)

    def test_empty_trace(self):
        rows, cols = Trace("t"), ColumnarTrace("t")
        assert cols.num_ops == 0
        assert cols.freeze().num_ops == 0
        assert _saved_bytes(rows) == _saved_bytes(cols)

    def test_single_op(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([2, 3, 4], dtype=np.int64)
        rows, cols = _record_both([(a, b, UNBOUNDED)])
        assert _saved_bytes(rows) == _saved_bytes(cols)

    def test_freeze_is_cached_until_next_op(self):
        cols = ColumnarTrace("t")
        a = np.array([1, 2], dtype=np.int64)
        cols.add_op_keys(OpKind.INTERSECT, a, a)
        first = cols.freeze()
        assert cols.freeze() is first
        cols.add_op_keys(OpKind.MERGE, a, a)
        assert cols.freeze() is not first
        assert cols.freeze().num_ops == 2

    def test_new_burst_allocates(self):
        cols = ColumnarTrace("t")
        assert cols.new_burst() == 1
        assert cols.new_burst() == 2


def _block_ops(seed, runs):
    """Generated ops over effective keys for ``runs`` (``(as_block,
    count)`` each), one ``(kind, a, b, op)`` each: ``op`` holds the
    op's flop pairs and its run's burst and nesting, and a run's ops
    share one kind."""
    rng = np.random.default_rng(seed)
    ops = []
    for k, (_, count) in enumerate(runs):
        ops += [(OpKind(k % 5), truncate_bound(a, bound),
                 truncate_bound(b, bound),
                 {"burst": k % 4 - 1, "nested": k % 3 == 0,
                  "flop_pairs": len(ops) % 7})
                for a, b, bound in _random_ops(rng, count)]
    empty = np.empty(0, dtype=np.int64)
    for i, (a, b) in ((6, (empty, ops[6][2])), (7, (empty, empty))):
        ops[i] = (ops[i][0], a, b, ops[i][3])
    return ops


def _record_runs(ops, runs, compact_elems, *, bulk):
    """Record ``ops`` in ``runs``: with ``bulk``, a run ``as_block`` is
    one ``add_ops`` call, its log rows appended first; every other op is
    one ``add_op_keys`` call."""
    log = TransferModel()
    trace = ColumnarTrace("t", log=log, compact_elems=compact_elems)
    i = 0
    for as_block, count in runs:
        run = ops[i:i + count]
        mems = [_log_rows(log, k) for k in range(i, i + count)]
        i += count
        if not (bulk and as_block):
            for (kind, a, b, op), mem in zip(run, mems):
                trace.add_op_keys(kind, a, b, mem=mem, **op)
            continue
        if not run:
            empty = np.empty(0, dtype=np.int64)
            trace.add_ops(OpKind.MERGE, empty, empty, empty, empty, empty,
                          mem=empty, mem_counts=empty)
            continue
        sides = [[op[side] for op in run] for side in (1, 2)]
        kind, _, _, op = run[0]
        trace.add_ops(
            kind, *(x for side in sides for x in (
                np.concatenate(side),
                np.array([keys.size for keys in side], dtype=np.int64))),
            np.array([op[3]["flop_pairs"] for op in run]),
            mem=np.array([row for mem in mems for row in mem],
                         dtype=np.int64),
            mem_counts=np.array([len(mem) for mem in mems], dtype=np.int64),
            burst=op["burst"], nested=op["nested"])
    assert i == len(ops)
    return trace


#: Per-op records before, between and after blocks, and an empty block;
#: the second block holds ops with empty operands.
_RUNS = [(False, 5), (True, 0), (True, 12), (False, 3), (True, 30),
         (True, 1), (False, 4), (True, 5)]


class TestAddOps:
    """A block of ``add_ops`` records what one ``add_op_keys`` per op
    records."""

    @pytest.mark.parametrize("compact_elems", [1, 300, COMPACT_ELEMS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_per_op_records(self, seed, compact_elems):
        ops = _block_ops(seed, _RUNS)
        one = _record_runs(ops, _RUNS, compact_elems, bulk=False)
        many = _record_runs(ops, _RUNS, compact_elems, bulk=True)
        assert many.num_ops == one.num_ops == len(ops)
        got, want = many.freeze(), one.freeze()
        assert got == want
        assert got.cpu_mem.tobytes() == want.cpu_mem.tobytes()
        assert got.sc_mem.tobytes() == want.sc_mem.tobytes()
        assert _saved_bytes(many) == _saved_bytes(one)

    def test_block_of_no_ops(self):
        trace = _mixed_trace()
        frozen = trace.freeze()
        empty = np.empty(0, dtype=np.int64)
        trace.add_ops(OpKind.VINTER, empty, empty, empty, empty, empty,
                      mem=empty, mem_counts=empty)
        assert trace.num_ops == 30
        assert trace.freeze() is frozen

    def test_charges_need_a_log(self):
        keys = np.array([1, 2], dtype=np.int64)
        sizes = np.array([2], dtype=np.int64)
        trace = ColumnarTrace("t")
        with pytest.raises(ValueError):
            trace.add_ops(OpKind.VINTER, keys, sizes, keys, sizes, sizes,
                          mem=np.array([0]), mem_counts=np.array([1]))
        trace.add_ops(OpKind.VINTER, keys, sizes, keys, sizes, sizes,
                      mem=np.empty(0, dtype=np.int64),
                      mem_counts=np.zeros(1, dtype=np.int64))
        assert trace.freeze().cpu_mem.tolist() == [0.0]


def _mixed_trace():
    """A live trace with every op kind, bursts, nesting and charges."""
    rng = np.random.default_rng(19)
    log = TransferModel()
    trace = ColumnarTrace("t", log=log)
    burst = trace.new_burst()
    for i, (a, b, bound) in enumerate(_random_ops(rng, 30)):
        kind = OpKind(i % 5)
        trace.add_op_keys(kind, a, b, bound,
                          burst=burst if i % 3 else -1, nested=i % 4 == 0,
                          mem=_log_rows(log, i),
                          flop_pairs=i if kind >= OpKind.VINTER else 0)
    trace.add_scalar(40)
    trace.add_cpu_scalar(12)
    trace.add_sc_scalar(3)
    return trace


_PRICERS = {
    "cpu": CpuModel().cost,
    "sparsecore": SparseCoreModel().cost,
    "multicore": MultiCoreModel(4).cost,
    "gpu": GpuModel(redundancy=6, symmetry_breaking=False).cost,
    "flexminer": FlexMinerModel().cost,
    "triejax": TrieJaxModel(num_graph_vertices=512, redundancy=6).cost,
    "gramer": GramerModel().cost,
    "outerspace": OuterSpaceModel().cost,
    "extensor": ExTensorModel().cost,
    "gamma": GammaModel().cost,
    "attribute": lambda trace: attribute(trace, workload="t"),
}


@pytest.mark.parametrize("pricer", sorted(_PRICERS))
def test_live_trace_prices_like_its_frozen_copy(pricer):
    price = _PRICERS[pricer]
    live = _mixed_trace()
    frozen = _mixed_trace().freeze()
    assert live.num_ops == frozen.num_ops == 30
    assert repr(price(live)) == repr(price(frozen))
