"""Tensor-times-matrix: ``Z[i,j,k] = sum_l A[i,j,l] * B[k,l]``.

Each CSF fiber of A contracts against every row of B — one
``S_VINTER`` MAC per (fiber, k) pair, each fiber's sweep over B's rows
recorded by one :meth:`~repro.machine.context.Machine.vinter_sweep`
call over B's rows, prepared once.  B's rows are the hot reusable streams (scratchpad priority),
which is what gives TTM its higher speedup than TTV on denser tensors
(Section 6.9.1).
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
    # The non-empty rows of B, swept by every fiber of A.
    row_ids = np.flatnonzero(np.diff(b.indptr))
    b_rows = machine.sweep_streams(
        [b.row_keys(k) for k in row_ids], [b.row_vals(k) for k in row_ids],
        [("brow", id(b), k) for k in row_ids.tolist()], priority=1)
    coords, vals = [], []
    offset = 0
    for i, j, l_keys, l_vals in a.fibers():
        # Fibers sit consecutively in the CSF arrays; reuse tracks the
        # line-sized chunk, not the individual fiber.
        fiber = machine.load_values(
            l_keys, l_vals, ("csf-chunk", id(a), offset // 16))
        offset += int(l_keys.size)
        machine.scalar(LOOP_INSTRS)
        values = machine.vinter_sweep(fiber, b_rows)
        machine.scalar(LOOP_INSTRS * len(b_rows))
        nz = np.flatnonzero(values)
        coords.extend((i, j, k) for k in row_ids[nz].tolist())
        vals.extend(values[nz].tolist())
    shape = (a.shape[0], a.shape[1], b.shape[0])
    coords_arr = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    return CSFTensor.from_coo(shape, coords_arr, np.asarray(vals), name="Z")


def ttm_dense_reference(a: CSFTensor, b: SparseMatrix) -> np.ndarray:
    return np.einsum("ijl,kl->ijk", a.to_dense(), b.to_dense())
