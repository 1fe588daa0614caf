"""Tensor-times-matrix: ``Z[i,j,k] = sum_l A[i,j,l] * B[k,l]``.

Each CSF fiber of A contracts against every row of B — one
``S_VINTER`` MAC per (fiber, k) pair.  The whole cross product is one
:meth:`~repro.machine.context.Machine.vinter_sweep` call over A's
fibers and B's rows, each prepared once.  B's rows are the hot reusable
streams (scratchpad priority), which is what gives TTM its higher
speedup than TTV on denser tensors (Section 6.9.1).
"""

from __future__ import annotations

import numpy as np

from repro.machine.context import Machine
from repro.tensor.csf import CSFTensor
from repro.tensor.matrix import SparseMatrix

LOOP_INSTRS = 5


def ttm(a: CSFTensor, b: SparseMatrix,
        machine: Machine | None = None) -> CSFTensor:
    """Contract the last mode of ``a`` with the rows of ``b``."""
    machine = machine or Machine(name="ttm")
    if b.shape[1] != a.shape[2]:
        raise ValueError(
            f"matrix has {b.shape[1]} columns, tensor mode has {a.shape[2]}")
    fibers = list(a.fibers())
    sizes = np.fromiter((keys.size for _, _, keys, _ in fibers),
                        dtype=np.int64, count=len(fibers))
    # Fibers sit consecutively in the CSF arrays; reuse tracks the
    # line-sized chunk, not the individual fiber.
    chunks = ((np.cumsum(sizes) - sizes) // 16).tolist()
    a_fibers = machine.sweep_streams(
        [keys for _, _, keys, _ in fibers], [vals for *_, vals in fibers],
        [("csf-chunk", id(a), chunk) for chunk in chunks])
    # The non-empty rows of B, swept by every fiber of A.
    row_ids = np.flatnonzero(np.diff(b.indptr))
    b_rows = machine.sweep_streams(
        [b.row_keys(k) for k in row_ids], [b.row_vals(k) for k in row_ids],
        [("brow", id(b), k) for k in row_ids.tolist()], priority=1)
    values = machine.vinter_sweep(a_fibers, b_rows)
    # Per fiber: its loop iteration, then one per row of B.
    machine.scalar(LOOP_INSTRS * len(fibers) * (1 + row_ids.size))
    f, k = np.nonzero(values)
    ij = np.array([(i, j) for i, j, _, _ in fibers],
                  dtype=np.int64).reshape(-1, 2)
    coords = np.column_stack((ij[f], row_ids[k]))
    shape = (a.shape[0], a.shape[1], b.shape[0])
    return CSFTensor.from_coo(shape, coords, values[f, k], name="Z")


def ttm_dense_reference(a: CSFTensor, b: SparseMatrix) -> np.ndarray:
    return np.einsum("ijl,kl->ijk", a.to_dense(), b.to_dense())
