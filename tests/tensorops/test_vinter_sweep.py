"""The inner-product and TTM kernels record what the per-op loop records.

:func:`~repro.tensorops.spmspm.spmspm_inner` and
:func:`~repro.tensorops.ttm.ttm` record their whole cross product (A's
rows against B's columns, A's fibers against B's rows) with one
:meth:`~repro.machine.context.Machine.vinter_sweep` call.  Every kernel
runs here twice: on the shipped :class:`Machine` and on
:class:`_PerOpMachine`, whose ``vinter_sweep`` is the reference loop of
one ``load_values`` per row, then one ``load_values`` and one
``vinter`` per pair.  Results must be identical and frozen traces
byte-identical, on small random inputs and on the Figure 15 runs no run
golden pins that record the most ops: the inner product on H and TTM on
Chicago Crime and Uber.  The run metrics, goldens and reference digests
hold no result value, so these are the checks of C and Z at suite
scale.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import _ARRAY_FIELDS, _SCALAR_FIELDS
from repro.machine.context import Machine
from repro.tensor import CSFTensor, SparseMatrix
from repro.tensor.datasets import load_matrix, load_tensor
from repro.tensorops import spmspm_inner, ttm
from repro.workloads.pricing import tensor_operands


class _PerOpMachine(Machine):
    """A machine whose sweeps load each row, then issue one load and one
    op per pair."""

    __slots__ = ()

    def vinter_sweep(self, rows, sweep):
        out = np.zeros((len(rows), len(sweep)))
        for i, (keys, vals, granule) in enumerate(zip(
                rows.keys, rows.vals, rows.granules)):
            a = self.load_values(keys, vals, granule, rows.priority)
            for j, (k, v, g) in enumerate(zip(sweep.keys, sweep.vals,
                                              sweep.granules)):
                out[i, j] = self.vinter(
                    a, self.load_values(k, v, g, sweep.priority), "MAC")
        return out


def _random_matrix(m, n, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density) * rng.uniform(-1.0, 1.0, (m, n))
    return SparseMatrix.from_dense(dense)


def _random_tensor(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density) * rng.uniform(-1.0, 1.0, shape)
    coords = np.argwhere(dense)
    return CSFTensor.from_coo(shape, coords, dense[tuple(coords.T)])


def _assert_same_run(kernel, a, b):
    got_machine, want_machine = Machine(name="k"), _PerOpMachine(name="k")
    got, want = kernel(a, b, got_machine), kernel(a, b, want_machine)
    for slot in type(want).__slots__:
        value, ref = getattr(got, slot), getattr(want, slot)
        if isinstance(ref, np.ndarray):
            assert value.dtype == ref.dtype, slot
            assert value.tobytes() == ref.tobytes(), slot
        else:
            assert value == ref, slot
    trace, ref_trace = got_machine.trace.freeze(), want_machine.trace.freeze()
    assert trace.num_ops == ref_trace.num_ops
    for field in _ARRAY_FIELDS:
        col, ref = getattr(trace, field), getattr(ref_trace, field)
        assert col.dtype == ref.dtype, field
        assert col.tobytes() == ref.tobytes(), field
    for field in _SCALAR_FIELDS:
        assert getattr(trace, field) == getattr(ref_trace, field), field
    return trace


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 24),
       st.sampled_from([0.05, 0.2, 0.6]), st.integers(0, 10_000))
def test_spmspm_inner_matches_per_op_loop(m, k, n, density, seed):
    _assert_same_run(spmspm_inner, _random_matrix(m, k, density, seed),
                     _random_matrix(k, n, density, seed + 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 30),
       st.integers(0, 12), st.sampled_from([0.05, 0.3, 0.8]),
       st.integers(0, 10_000))
def test_ttm_matches_per_op_loop(i, j, l, k, density, seed):
    _assert_same_run(ttm, _random_tensor((i, j, l), density, seed),
                     _random_matrix(k, l, density, seed + 1))


def test_ttm_on_chicago_crime_matches_per_op_loop():
    tensor = load_tensor("Ch")
    _, matrix = tensor_operands(tensor)
    trace = _assert_same_run(ttm, tensor, matrix)
    assert trace.num_ops > 50_000
    assert trace.flop_pairs.max() >= 8


def test_ttm_on_uber_matches_per_op_loop():
    tensor = load_tensor("U")
    _, matrix = tensor_operands(tensor)
    trace = _assert_same_run(ttm, tensor, matrix)
    assert trace.num_ops > 90_000
    assert trace.flop_pairs.max() >= 3


def test_spmspm_inner_on_h_matches_per_op_loop():
    matrix = load_matrix("H")
    trace = _assert_same_run(spmspm_inner, matrix, matrix)
    assert trace.num_ops > 150_000
    assert trace.flop_pairs.max() >= 3
