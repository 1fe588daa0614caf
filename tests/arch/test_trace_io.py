"""Tests for trace serialization (offline re-pricing workflows)."""

import dataclasses
import io

import numpy as np

from repro.arch import CpuModel, SparseCoreModel
from repro.arch.trace import FrozenTrace
from repro.gpm import run_app
from repro.graph.generators import power_law_graph
from repro.machine.context import Machine
from repro.tensor import SparseMatrix
from repro.tensorops import spmspm_inner


class TestTraceRoundtrip:
    def test_save_load_identical(self, tmp_path):
        run = run_app("T", power_law_graph(120, 6.0, 30, seed=1))
        original = run.trace.freeze()
        path = tmp_path / "trace.npz"
        original.save(path)
        loaded = FrozenTrace.load(path)
        assert loaded.name == original.name
        assert loaded.num_ops == original.num_ops
        np.testing.assert_array_equal(loaded.su_cycles, original.su_cycles)
        np.testing.assert_array_equal(loaded.burst, original.burst)
        np.testing.assert_array_equal(loaded.nested, original.nested)
        assert loaded.shared_scalar_instrs == original.shared_scalar_instrs
        assert loaded.cpu_only_scalar_instrs == \
            original.cpu_only_scalar_instrs

    def test_costing_identical_after_reload(self, tmp_path):
        """The whole point: a saved trace re-prices to the same cycles
        on any model, in a later session."""
        run = run_app("4C", power_law_graph(100, 8.0, 30, seed=2))
        original = run.trace.freeze()
        path = tmp_path / "trace.npz"
        original.save(path)
        loaded = FrozenTrace.load(path)
        for model in (CpuModel(), SparseCoreModel()):
            assert model.cost(loaded).total_cycles == \
                model.cost(original).total_cycles

    def test_empty_trace_roundtrip(self, tmp_path):
        from repro.arch.trace import Trace

        original = Trace("empty").freeze()
        path = tmp_path / "empty.npz"
        original.save(path)
        loaded = FrozenTrace.load(path)
        assert loaded.num_ops == 0
        assert SparseCoreModel().cost(loaded).total_cycles == 0.0


def _inner_product_trace() -> FrozenTrace:
    rng = np.random.default_rng(7)
    a, b = (SparseMatrix.from_dense((rng.random(shape) < 0.3)
                                    * rng.uniform(-1.0, 1.0, shape))
            for shape in ((16, 12), (12, 16)))
    machine = Machine(name="inner")
    spmspm_inner(a, b, machine)
    return machine.freeze()


def _reloaded(trace: FrozenTrace) -> FrozenTrace:
    buf = io.BytesIO()
    trace.save(buf)
    buf.seek(0)
    return FrozenTrace.load(buf)


class TestTraceEquality:
    """``==`` compares the name, the scalar counts and every column
    (dtype and values), so twins holding distinct arrays are equal."""

    def test_save_load_twin_is_equal(self):
        trace = _inner_product_trace()
        twin = _reloaded(trace)
        assert twin.sc_mem is not trace.sc_mem
        assert twin == trace
        assert not twin != trace

    def test_one_changed_charge_is_unequal(self):
        trace = _inner_product_trace()
        sc_mem = trace.sc_mem.copy()
        sc_mem[sc_mem.size // 2] += 1.0
        assert dataclasses.replace(trace, sc_mem=sc_mem) != trace

    def test_dtype_name_and_scalars_count(self):
        trace = _inner_product_trace()
        for change in ({"kind": trace.kind.astype(np.int64)},
                       {"name": "other"},
                       {"shared_scalar_instrs":
                        trace.shared_scalar_instrs + 1}):
            assert dataclasses.replace(trace, **change) != trace, change

    def test_filled_memos_still_equal_a_fresh_load(self):
        trace = _inner_product_trace()
        SparseCoreModel().cost(trace)
        CpuModel().cost(trace)
        assert trace._segments and trace._cpu_sums
        assert trace == _reloaded(trace)
