"""Tests for the recording machine context."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import _ARRAY_FIELDS, _SCALAR_FIELDS, NO_BURST, OpKind
from repro.errors import StreamTypeFault
from repro.graph import CSRGraph
from repro.machine import Machine, StreamOperand
from repro.obs.probe import Probe
from repro.record.columnar import COMPACT_ELEMS, ColumnarTrace


def keys(*xs):
    return np.array(xs, dtype=np.int64)


class TestFunctionalResults:
    def test_intersect(self):
        m = Machine()
        out = m.intersect(keys(1, 3, 7), keys(3, 7, 9))
        assert out.keys.tolist() == [3, 7]

    def test_counts(self):
        m = Machine()
        assert m.intersect_count(keys(1, 3), keys(3)) == 1
        assert m.subtract_count(keys(1, 3), keys(3)) == 1
        assert m.merge_count(keys(1, 3), keys(3)) == 2

    def test_bounded(self):
        m = Machine()
        assert m.intersect_count(keys(1, 5, 9), keys(1, 5, 9), bound=6) == 2

    def test_vinter(self):
        m = Machine()
        a = m.load_values(keys(1, 3, 7), np.array([45.0, 21.0, 13.0]))
        b = m.load_values(keys(2, 5, 7), np.array([14.0, 36.0, 2.0]))
        assert m.vinter(a, b, "MAC") == 26.0

    def test_vinter_requires_values(self):
        m = Machine()
        with pytest.raises(StreamTypeFault):
            m.vinter(m.load(keys(1)), m.load_values(keys(1), np.ones(1)))

    def test_vmerge(self):
        m = Machine()
        a = m.load_values(keys(1, 3), np.array([4.0, 21.0]))
        b = m.load_values(keys(1, 5), np.array([1.0, 36.0]))
        out = m.vmerge(2.0, a, 3.0, b)
        assert out.keys.tolist() == [1, 3, 5]
        assert out.values.tolist() == [11.0, 42.0, 108.0]

    def test_nest_intersect_counts(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        m = Machine()
        # S = N(2) = [0, 1, 3]; bounded by each key.
        total = m.nest_intersect(m.neighbors(g, 2), g)
        # s=0: N(0)∩S below 0 -> 0; s=1: {0} -> 1; s=3: {} -> 0.
        assert total == 1


class TestRecording:
    def test_ops_recorded_with_kinds(self):
        m = Machine()
        m.intersect(keys(1, 2), keys(2, 3))
        m.subtract(keys(1, 2), keys(2))
        m.merge(keys(1), keys(2))
        f = m.trace.freeze()
        assert f.kind.tolist() == [OpKind.INTERSECT, OpKind.SUBTRACT,
                                   OpKind.MERGE]

    def test_memory_charged_once_per_load(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        m = Machine()
        nbr = m.neighbors(g, 1)
        m.intersect_count(nbr, nbr)
        m.intersect_count(nbr, nbr)  # second op: pending already taken
        f = m.trace.freeze()
        assert f.cpu_mem[0] > 0
        assert f.cpu_mem[1] == 0

    def test_intermediates_cost_no_memory(self):
        m = Machine()
        out = m.intersect(keys(1, 2, 3), keys(2, 3, 4))
        m.intersect_count(out, out)
        assert m.trace.freeze().cpu_mem[1] == 0.0

    def test_burst_context_manager(self):
        m = Machine()
        with m.burst():
            m.intersect_count(keys(1), keys(1))
            m.intersect_count(keys(2), keys(2))
        m.intersect_count(keys(3), keys(3))
        f = m.trace.freeze()
        assert f.burst[0] == f.burst[1] != NO_BURST
        assert f.burst[2] == NO_BURST

    def test_nested_bursts_restore(self):
        m = Machine()
        with m.burst() as outer:
            with m.burst() as inner:
                assert inner != outer
                m.intersect_count(keys(1), keys(1))
            m.intersect_count(keys(2), keys(2))
        f = m.trace.freeze()
        assert f.burst[0] == inner
        assert f.burst[1] == outer

    def test_scalar_accounting(self):
        m = Machine()
        m.scalar(10)
        m.cpu_loop(5)
        m.sc_loop(3)
        f = m.trace.freeze()
        assert f.shared_scalar_instrs >= 10
        assert f.cpu_only_scalar_instrs == 5
        assert f.sc_only_scalar_instrs == 3

    def test_length_samples(self):
        m = Machine(record_lengths=True)
        m.intersect_count(keys(1, 2, 3), keys(4))
        assert m.length_samples == [3, 1]

    def test_scratchpad_priority_load(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        m = Machine()
        m.neighbors(g, 1, priority=1)
        op = m.neighbors(g, 1, priority=1)  # scratchpad hit
        assert m.transfer.cost(op.pending).sc_cycles == 0.0
        assert m.transfer.scratchpad_hit(op.pending)

    def test_reload_charges_pending(self):
        m = Machine()
        op = StreamOperand(keys(1, 2, 3), np.ones(3))
        m.reload(op, ("acc", 1))
        cost = m.transfer.cost(op.pending)
        assert cost.cpu_cycles > 0
        assert cost.sc_cycles > 0
        with pytest.raises(ValueError):
            m.reload(op, ("acc", 1))


class TestAppRunHelpers:
    def test_speedup_helper(self):
        from repro.gpm import run_app
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(60, 8.0, seed=2)
        run = run_app("T", g)
        cpu = run.cpu_report()
        sc = run.sparsecore_report()
        assert cpu.machine == "cpu"
        assert sc.machine == "sparsecore"
        assert run.speedup() == pytest.approx(sc.speedup_over(cpu))
        assert run.speedup() > 1.0


# -- probed machines observe their ops in freeze() -------------------------


def _probed_program(freeze, max_events=200_000):
    """A small probed run that calls ``freeze`` mid-run, once inside an
    open burst; returns its probe after a final ``Machine.freeze``."""
    probe = Probe.collecting(max_events=max_events)
    m = Machine(probe=probe)
    a = m.load(keys(1, 3, 5, 7), ("a", 0))
    b = m.load_values(keys(3, 5, 8), np.ones(3), ("b", 0))
    m.intersect(a, b)
    freeze(m)
    with m.burst():
        m.subtract(a, b, bound=6)
        freeze(m)
        m.merge(a, m.load(keys(5, 7, 9), ("c", 0)))
    freeze(m)
    with m.burst():
        pass
    m.vinter(m.load_values(keys(3, 5), np.ones(2), ("d", 0)), b)
    m.load(keys(2), ("e", 0))  # a fetch after the last op
    m.freeze()
    return probe


class TestProbedFreeze:
    def test_nothing_observed_before_freeze(self):
        probe = Probe.collecting()
        m = Machine(probe=probe)
        m.intersect(m.load(keys(1, 2), ("a", 0)), keys(2, 3))
        assert probe.counters.get("machine.stream_loads") == 1
        assert probe.counters.get("machine.ops.intersect") == 0
        assert probe.tracer.events == []
        m.freeze()
        assert probe.counters.get("machine.ops.intersect") == 1
        assert [e.cat for e in probe.tracer.events] == ["fetch", "su",
                                                         "stall"]

    def test_each_freeze_covers_only_new_ops(self):
        once = _probed_program(lambda m: None)
        often = _probed_program(Machine.freeze)
        assert often.counters.flat() == once.counters.flat()
        assert often.tracer.events == once.tracer.events
        assert once.counters.get("machine.ops.vinter") == 1
        assert once.counters.get("machine.bursts") == 2
        cats = [e.cat for e in once.tracer.events]
        assert cats.count("burst") == 1 and cats[-1] == "fetch"

    @pytest.mark.parametrize("freeze", [lambda m: None, Machine.freeze],
                             ids=["once", "often"])
    def test_capped_tracer_keeps_the_uncapped_prefix(self, freeze):
        full = _probed_program(freeze).tracer.events
        for cap in range(len(full) + 1):
            tracer = _probed_program(freeze, max_events=cap).tracer
            assert tracer.events == full[:cap], cap
            assert tracer.dropped == len(full) - cap, cap

    def test_timeline_is_contiguous(self):
        events = _probed_program(Machine.freeze).tracer.events
        ops = [e for e in events if e.cat == "su"]
        stalls = {e.ts: e.dur for e in events if e.cat == "stall"}
        for op, nxt in zip(ops, ops[1:]):
            assert nxt.ts == op.ts + op.dur + stalls.get(op.ts + op.dur, 0)
        burst = next(e for e in events if e.cat == "burst")
        assert burst.args["ops"] == 2
        assert burst.ts == ops[1].ts


# -- vinter_sweep against the per-op loop ---------------------------------


def _per_op_sweep(machine, rows, sweep):
    """The reference: one ``load_values`` per row, then one
    ``load_values`` and one ``vinter`` per pair."""
    out = np.zeros((len(rows), len(sweep)))
    for i, (a_keys, a_vals, a_granule) in enumerate(zip(
            rows.keys, rows.vals, rows.granules)):
        a = machine.load_values(a_keys, a_vals, a_granule, rows.priority)
        for j, (b_keys, b_vals, b_granule) in enumerate(zip(
                sweep.keys, sweep.vals, sweep.granules)):
            b = machine.load_values(b_keys, b_vals, b_granule,
                                    sweep.priority)
            out[i, j] = machine.vinter(a, b, "MAC")
    return out


def _sweep(machine, rows, sweep):
    return machine.vinter_sweep(rows, sweep)


def _streams(machine, streams, priority):
    """Prepare ``streams`` (``(keys, vals, granule)`` each)."""
    return machine.sweep_streams([k for k, _, _ in streams],
                                 [v for _, v, _ in streams],
                                 [g for _, _, g in streams], priority)


def _run_plan(plan, sweep, probe=None, compact_elems=COMPACT_ELEMS,
              recorder=ColumnarTrace):
    """Run every sweep of ``plan`` on a fresh machine through ``sweep``.

    A plan step is ``(rows, row_priority, operands, priority)``; rows
    and operands are ``(keys, vals, granule)`` streams, loaded from
    memory when ``granule`` is set.  After each step one per-op
    ``vinter`` is recorded, so a sweep also follows pending per-op
    records.  The machine records into a ``recorder`` that compacts
    every ``compact_elems`` operand keys, which also bounds the sweep's
    blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.machine.context.ColumnarTrace",
                   partial(recorder, compact_elems=compact_elems))
        machine = Machine(name="sweep", record_lengths=True, probe=probe)
    outputs = []
    for step, (rows, row_priority, operands, priority) in enumerate(plan):
        outputs.append(sweep(machine, _streams(machine, rows, row_priority),
                             _streams(machine, operands, priority)))
        machine.vinter(
            machine.load_values(keys(1, 2, 5), np.ones(3), ("c", step)),
            StreamOperand(keys(2, 5), np.full(2, 0.5)))
    return machine, outputs


def _assert_same_recording(plan, probes=(None, None), **kwargs):
    got, got_out = _run_plan(plan, _sweep, probes[0], **kwargs)
    want, want_out = _run_plan(plan, _per_op_sweep, probes[1], **kwargs)
    for out, ref in zip(got_out, want_out):
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
    trace, ref_trace = got.freeze(), want.freeze()
    for field in _ARRAY_FIELDS:
        col, ref = getattr(trace, field), getattr(ref_trace, field)
        assert col.dtype == ref.dtype, field
        assert col.tobytes() == ref.tobytes(), field
    for field in _SCALAR_FIELDS:
        assert getattr(trace, field) == getattr(ref_trace, field), field
    assert got.length_samples == want.length_samples
    # The same rows leave every memory level in the same state.
    assert got.transfer.rows() == want.transfer.rows()
    if probes[0] is not None:
        assert probes[0].counters.flat() == probes[1].counters.flat()
        assert probes[0].tracer.events == probes[1].tracer.events
        assert probes[0].tracer.dropped == probes[1].tracer.dropped
    return got, want


def _stream(rng, universe, density, granule):
    keys = np.flatnonzero(rng.random(universe) < density).astype(np.int64)
    vals = rng.standard_normal(keys.size) * 10.0 ** rng.integers(-3, 4)
    vals[rng.random(keys.size) < 0.1] = 0.0
    return keys, vals, granule


#: Key universes: 3000 dense keys are 24,000 bytes, more than the
#: 16 KiB scratchpad; 300 and 3000 give >= 8 and >= 128 matches (the
#: block sizes of numpy's pairwise summation).
_UNIVERSES = (1, 6, 40, 300, 3000)
_DENSITIES = (0.0, 0.05, 0.5, 1.0)
#: Rows share granules, at different sizes, as TTM's fibers share a
#: ``csf-chunk``.
_ROW_GRANULES = (None, ("a", 0), ("a", 1))
_GRANULES = (None, ("b", 0), ("b", 1), ("b", 2), ("b", 3))
#: Block bounds: one row per block, a few rows, one block.
_COMPACT = (1, 60, COMPACT_ELEMS)


@st.composite
def _plans(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    universe = draw(st.sampled_from(_UNIVERSES))

    def streams(granules, most):
        return [_stream(rng, universe, draw(st.sampled_from(_DENSITIES)),
                        draw(st.sampled_from(granules)))
                for _ in range(draw(st.integers(0, most)))]

    return [(streams(_ROW_GRANULES, 4), draw(st.sampled_from((0, 1))),
             streams(_GRANULES, 5), draw(st.sampled_from((0, 1))))
            for _ in range(draw(st.integers(1, 3)))]


def _plan(seed, universe, row_densities, b_densities, *,
          row_granule=("a", 0), row_priority=0, priority=0, steps=1):
    rng = np.random.default_rng(seed)
    return [([_stream(rng, universe, d, row_granule) for d in row_densities],
             row_priority,
             [_stream(rng, universe, d, ("b", j))
              for j, d in enumerate(b_densities)], priority)
            for _ in range(steps)]


class TestVinterSweep:
    """``vinter_sweep`` records exactly what the per-op loop records."""

    @settings(max_examples=60, deadline=None)
    @given(plan=_plans(), compact_elems=st.sampled_from(_COMPACT))
    def test_matches_per_op_loop(self, plan, compact_elems):
        _assert_same_recording(plan, compact_elems=compact_elems)

    @pytest.mark.parametrize("case", [
        dict(),                                     # rows with a granule
        dict(row_granule=None),                     # rows without one
        dict(steps=3),                              # rows swept again
        dict(row_densities=(0.0, 0.5)),             # an empty row
        dict(b_densities=(0.0, 0.0, 1.0)),          # zero-length operands
        dict(universe=3000, priority=1),            # > scratchpad
        dict(row_priority=1, priority=1, steps=2),
        dict(universe=3000, row_priority=1),        # > scratchpad, rows
        dict(row_densities=()),                     # no rows
        dict(b_densities=()),                       # an empty sweep
    ])
    def test_edge_cases(self, case):
        args = {"seed": 7, "universe": 40, "row_densities": (0.5, 0.05, 1.0),
                "b_densities": (0.5, 0.05, 1.0, 0.0)}
        _assert_same_recording(_plan(**{**args, **case}))

    def test_covers_pairwise_summation_blocks(self):
        plan = _plan(7, 3000, (0.5, 1.0), (0.5, 0.05, 0.005, 1.0))
        got, _ = _assert_same_recording(plan)
        matches = got.trace.freeze().flop_pairs
        assert matches.max() >= 128
        assert ((matches >= 8) & (matches < 128)).any()

    def test_zero_matches(self):
        rows = [(keys(1, 3), np.array([2.0, 3.0]), ("a", 0))]
        operands = [(keys(0, 2, 4), np.ones(3), ("b", j)) for j in range(3)]
        got, _ = _assert_same_recording([(rows, 0, operands, 1)])
        assert got.trace.freeze().flop_pairs.tolist()[:3] == [0, 0, 0]

    @pytest.mark.parametrize("compact_elems,blocks", [
        (1, [1] * 7), (63, [2, 3, 2]), (COMPACT_ELEMS, [7])])
    def test_blocks_split_at_whole_rows(self, compact_elems, blocks):
        # Each full row's ops hold 3 * 6 + 9 keys, the empty row's 9:
        # 63 keys fit rows 2 to 4 exactly.
        plan = _plan(3, 6, (1.0,) * 7, (0.5, 1.0, 0.0))
        plan[0][0][3] = _stream(np.random.default_rng(1), 6, 0.0, None)
        assert sum(k.size for k, _, _ in plan[0][2]) == 9
        got, _ = _assert_same_recording(plan, compact_elems=compact_elems)
        assert got.trace.num_ops == 7 * 3 + 1
        seen = []

        class Blocks(ColumnarTrace):
            __slots__ = ()

            def add_ops(self, kind, a_keys, a_sizes, *args, **kwargs):
                seen.append(a_sizes.size // 3)
                super().add_ops(kind, a_keys, a_sizes, *args, **kwargs)

        _run_plan(plan, _sweep, compact_elems=compact_elems, recorder=Blocks)
        assert seen == blocks

    def test_empty_sweep_leaves_pending_charge(self):
        # Each row's load is logged; no op takes its charge.
        m = Machine()
        rows = m.sweep_streams([keys(1, 3), keys(2)], [np.ones(2)] * 2,
                               [("a", 0), ("a", 1)])
        out = m.vinter_sweep(rows, m.sweep_streams([], [], []))
        assert out.shape == (2, 0)
        assert m.trace.num_ops == 0
        assert [g for g, _, _ in m.transfer.rows()] == [("a", 0), ("a", 1)]
        m.vinter_sweep(rows, m.sweep_streams([keys(2), keys(4)],
                                             [np.ones(1)] * 2, [None, None]))
        cpu = m.transfer.cost(2).cpu_cycles
        assert m.trace.freeze().cpu_mem.tolist()[:2] == [cpu, 0.0]

    def test_collecting_probe(self):
        probes = (Probe.collecting(), Probe.collecting())
        _assert_same_recording(_plan(5, 300, (0.5, 0.0, 1.0), (0.5, 0.0, 1.0),
                                     priority=1, steps=2), probes,
                               compact_elems=700)
        assert probes[0].counters.get("machine.ops.vinter") == 2 * (9 + 1)
        cats = [e.cat for e in probes[0].tracer.events]
        assert cats.count("fetch") == 2 * (3 + 3 * 3 + 1)

    @settings(max_examples=15, deadline=None)
    @given(plan=_plans(), compact_elems=st.sampled_from(_COMPACT))
    def test_generated_under_a_probe(self, plan, compact_elems):
        _assert_same_recording(plan, (Probe.collecting(max_events=300),
                                      Probe.collecting(max_events=300)),
                               compact_elems=compact_elems)

    def test_values_and_counts(self):
        m = Machine()
        rows = m.sweep_streams(
            [keys(1, 3, 7), keys(2)], [np.array([45.0, 21.0, 13.0]),
                                       np.array([4.0])], [None, ("a", 0)])
        out = m.vinter_sweep(rows, m.sweep_streams(
            [keys(2, 5, 7), keys(), keys(1, 3)],
            [np.array([14.0, 36.0, 2.0]), np.empty(0), np.array([1.0, 2.0])],
            [("b", 0), ("b", 1), ("b", 2)]))
        assert out.tolist() == [[26.0, 0.0, 87.0], [56.0, 0.0, 0.0]]
        assert m.trace.freeze().flop_pairs.tolist() == [1, 0, 2, 1, 0, 0]

    def test_requires_values(self):
        m = Machine()
        with pytest.raises(StreamTypeFault):
            m.sweep_streams([keys(1)], [None], [("b", 0)])

    def test_sweep_of_another_machine(self):
        m, other = Machine(), Machine()
        mine = m.sweep_streams([keys(1)], [np.ones(1)], [("b", 0)])
        theirs = other.sweep_streams([keys(1)], [np.ones(1)], [("b", 0)])
        for rows, sweep in ((mine, theirs), (theirs, mine)):
            with pytest.raises(ValueError):
                m.vinter_sweep(rows, sweep)
