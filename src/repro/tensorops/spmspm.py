"""Sparse matrix - sparse matrix multiplication: three dataflows.

``A[m,k] @ B[k,n] = C[m,n]`` implemented with the three loop orders the
paper compares (Section 2.1):

* **inner-product** (m, n, k): every (i, j) output is the sparse dot
  product of an A row and a B column — one ``S_VINTER`` each.  Heavy on
  intersections, but the operand streams reuse perfectly (the A row is
  pinned while j sweeps), which is why SparseCore accelerates this
  dataflow the most (Section 6.9.1).
* **outer-product** (k, m, n): column k of A scales row k of B into
  partial products merged into C — ``S_VMERGE`` chains.
* **Gustavson** (m, k, n): per output row, scaled B rows merge into a
  row accumulator — the asymptotically strongest dataflow.

All three compute identical results; they differ only in operation mix
and locality, which is exactly what the recorded traces capture.
"""

from __future__ import annotations

import numpy as np

from repro.machine.context import Machine, StreamOperand
from repro.tensor.matrix import SparseMatrix

#: Scalar loop instructions per (loop iteration) of the generated code.
LOOP_INSTRS = 5

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_VALS = np.empty(0, dtype=np.float64)


def _empty_acc() -> StreamOperand:
    return StreamOperand(_EMPTY, _EMPTY_VALS)


def spmspm_inner(a: SparseMatrix, b: SparseMatrix,
                 machine: Machine | None = None) -> SparseMatrix:
    """Inner-product dataflow (one ``S_VINTER`` per output candidate).

    Every non-empty row of A sweeps every non-empty column of B: the
    whole cross product is one
    :meth:`~repro.machine.context.Machine.vinter_sweep` call over the
    rows and columns, each prepared once, and C is built from the
    matrix of values it returns."""
    machine = machine or Machine(name="spmspm-inner")
    bt = b.transpose()  # CSC view of B; format conversion is input prep
    row_ids = np.flatnonzero(np.diff(a.indptr))
    col_ids = np.flatnonzero(np.diff(bt.indptr))
    # A's rows are the pinned operands (scratchpad priority).
    a_rows = machine.sweep_streams(
        [a.row_keys(i) for i in row_ids], [a.row_vals(i) for i in row_ids],
        [("arow", id(a), i) for i in row_ids.tolist()], priority=1)
    columns = machine.sweep_streams(
        [bt.row_keys(j) for j in col_ids], [bt.row_vals(j) for j in col_ids],
        [("bcol", id(b), j) for j in col_ids.tolist()])
    values = machine.vinter_sweep(a_rows, columns)
    # Per row: its loop iteration, then one per column.
    machine.scalar(LOOP_INSTRS * row_ids.size * (1 + col_ids.size))
    i, j = np.nonzero(values)
    return SparseMatrix.from_coo((a.shape[0], b.shape[1]), row_ids[i],
                                 col_ids[j], values[i, j], name="C")


def _rows_from_accumulators(shape, accs: dict[int, StreamOperand],
                            name: str) -> SparseMatrix:
    rows, cols, vals = [], [], []
    for i, acc in accs.items():
        nz = acc.values != 0.0
        keys = acc.keys[nz]
        rows.extend([i] * int(keys.size))
        cols.extend(keys.tolist())
        vals.extend(acc.values[nz].tolist())
    return SparseMatrix.from_coo(shape, rows, cols, vals, name=name)


def spmspm_outer(a: SparseMatrix, b: SparseMatrix,
                 machine: Machine | None = None) -> SparseMatrix:
    """Outer-product dataflow (k outermost; partial products merged)."""
    machine = machine or Machine(name="spmspm-outer")
    at = a.transpose()  # columns of A
    accs: dict[int, StreamOperand] = {}
    for k in range(at.shape[0]):
        col = at.row_keys(k)
        if col.size == 0 or b.row_nnz(k) == 0:
            continue
        col_vals = at.row_vals(k)
        machine.scalar(LOOP_INSTRS)
        for idx, i in enumerate(col.tolist()):
            b_row = machine.load_values(
                b.row_keys(k), b.row_vals(k), ("brow", id(b), k), priority=1)
            acc = accs.get(i)
            if acc is None:
                acc = _empty_acc()
            else:
                # The k-outermost order cycles through every output row
                # between consecutive touches of the same accumulator,
                # so partial products keep spilling and re-loading —
                # the dataflow's key weakness (Section 2.1).
                machine.reload(acc, ("accrow", id(a), i))
            accs[i] = machine.vmerge(1.0, acc, float(col_vals[idx]), b_row)
            machine.scalar(LOOP_INSTRS)
    return _rows_from_accumulators(
        (a.shape[0], b.shape[1]), accs, "C")


def spmspm_gustavson(a: SparseMatrix, b: SparseMatrix,
                     machine: Machine | None = None) -> SparseMatrix:
    """Gustavson's dataflow (row-by-row accumulation)."""
    machine = machine or Machine(name="spmspm-gustavson")
    accs: dict[int, StreamOperand] = {}
    for i in range(a.shape[0]):
        a_keys = a.row_keys(i)
        if a_keys.size == 0:
            continue
        a_vals = a.row_vals(i)
        acc = _empty_acc()
        machine.scalar(LOOP_INSTRS)
        for idx, k in enumerate(a_keys.tolist()):
            if b.row_nnz(k) == 0:
                continue
            b_row = machine.load_values(
                b.row_keys(k), b.row_vals(k), ("brow", id(b), k), priority=1)
            acc = machine.vmerge(1.0, acc, float(a_vals[idx]), b_row)
            machine.scalar(LOOP_INSTRS)
        if len(acc):
            accs[i] = acc
    return _rows_from_accumulators(
        (a.shape[0], b.shape[1]), accs, "C")


def spmspm_dense_reference(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """Dense ground truth for correctness tests."""
    return a.to_dense() @ b.to_dense()
