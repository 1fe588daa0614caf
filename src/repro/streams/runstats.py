"""Merge-run analysis: the structural statistics behind every cost model.

Walking the *merge path* of two sorted key streams visits the union of
their keys in order.  Consecutive keys coming from the same source form a
**run**; the sequence of runs fully determines the cost of the operation
in each machine model:

* **Stream Unit (SparseCore, Section 4.2 / Figure 6).**  The SU compares
  the head of each stream against a window of ``SU_BUFFER_WIDTH`` keys of
  the other stream per cycle, so a run of ``L`` mismatching keys is
  consumed in ``ceil(L / W)`` cycles.  Intersection emits at most one
  match per cycle, so a run of ``L`` matches costs ``L`` cycles;
  subtraction and merge can emit multiple keys per cycle and consume
  match runs at window rate too.  Intersection terminates the moment
  either operand is exhausted — the *terminal* single-source run of the
  merge path (including the degenerate case of an empty operand) costs
  no intersect cycles at all, matching the cycle-stepped
  :class:`~repro.arch.stream_unit.StreamUnit` exactly.

* **Scalar CPU.**  The classic two-pointer loop performs one
  compare+branch iteration per union key; the branch direction changes
  exactly at run boundaries, and a fraction of those changes are
  mispredicted (Figure 9 shows this dominating CPU time).

:func:`analyze_pair` computes all of these statistics for one op with a
sequential walk of the merge path and returns a compact
:class:`OpStats` record.  Recording never calls it: every recorded op
is analysed in batches by :func:`repro.record.columnar.analyze_segments`.
It is the per-op reference those batches are tested against, written
independently of them, and the analytic side of the difftest
bracket checks against the stepped Stream Unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Width of the SU parallel-comparison window (paper Section 4.2: "We set
#: the buffer size as 16").
SU_BUFFER_WIDTH = 16

#: Sentinel for "no upper bound" (paper: R3 is set to -1).
UNBOUNDED = -1


@dataclass(frozen=True)
class OpStats:
    """Structural statistics of one binary stream operation.

    All lengths refer to the *effective* operands after upper-bound
    truncation (early termination, Section 2.2), except ``len_a`` and
    ``len_b`` which record the full architectural stream lengths.
    """

    len_a: int
    len_b: int
    eff_a: int
    eff_b: int
    n_union: int
    n_matches: int
    n_runs: int
    #: SU cycles when the op is an intersection (<=1 output/cycle; the
    #: terminal single-source run is free — the SU halts once either
    #: operand is exhausted).
    su_cycles_intersect: int
    #: SU cycles when the op is a subtraction or merge (window-rate output).
    su_cycles_submerge: int
    #: Scalar-loop iterations of the two-pointer CPU implementation.
    cpu_steps: int
    #: Branch-direction changes along the merge path (run boundaries).
    direction_changes: int

    @property
    def intersect_len(self) -> int:
        return self.n_matches

    @property
    def subtract_len(self) -> int:
        """Length of A - B over the effective (bounded) operands."""
        return self.eff_a - self.n_matches

    @property
    def merge_len(self) -> int:
        return self.n_union

    def out_len(self, kind: str) -> int:
        """Result length for ``kind`` in {'intersect', 'subtract', 'merge'}."""
        if kind == "intersect":
            return self.intersect_len
        if kind == "subtract":
            return self.subtract_len
        if kind == "merge":
            return self.merge_len
        raise ValueError(f"unknown op kind: {kind!r}")

    def su_cycles(self, kind: str) -> int:
        """SU cycles for ``kind`` (intersections emit 1 match/cycle)."""
        if kind == "intersect":
            return self.su_cycles_intersect
        if kind in ("subtract", "merge"):
            return self.su_cycles_submerge
        raise ValueError(f"unknown op kind: {kind!r}")


def truncate_bound(keys: np.ndarray, bound: int) -> np.ndarray:
    """Keep only keys strictly below ``bound`` (no-op when unbounded)."""
    if bound < 0 or keys.size == 0 or keys[-1] < bound:
        return keys
    return keys[: int(keys.searchsorted(bound))]


def analyze_pair(
    a: np.ndarray,
    b: np.ndarray,
    bound: int = UNBOUNDED,
    *,
    width: int = SU_BUFFER_WIDTH,
) -> OpStats:
    """Compute :class:`OpStats` for sorted key arrays ``a`` and ``b``."""
    xs = truncate_bound(a, bound).tolist()
    ys = truncate_bound(b, bound).tolist()
    na, nb = len(xs), len(ys)
    i = j = 0
    n_matches = 0
    n_union = 0
    n_runs = 0
    su_int = 0
    su_sub = 0
    prev_src = 0
    run_len = 0
    last_int_charge = 0

    def close_run():
        nonlocal su_int, su_sub, n_runs, last_int_charge
        if run_len:
            n_runs += 1
            windowed = -(-run_len // width)
            su_sub += windowed
            if prev_src == 3:
                su_int += run_len
                last_int_charge = 0
            else:
                su_int += windowed
                last_int_charge = windowed

    while i < na and j < nb:
        x, y = xs[i], ys[j]
        if x == y:
            src = 3
            i += 1
            j += 1
            n_matches += 1
        elif x < y:
            src = 1
            i += 1
        else:
            src = 2
            j += 1
        n_union += 1
        if src == prev_src:
            run_len += 1
        else:
            close_run()
            prev_src = src
            run_len = 1
    for tail, src in ((na - i, 1), (nb - j, 2)):
        if tail:
            n_union += tail
            if src == prev_src:
                run_len += tail
            else:
                close_run()
                prev_src = src
                run_len = tail
    close_run()
    # The SU halts an intersection as soon as either operand runs out:
    # the terminal single-source run costs no intersect cycles.
    su_int -= last_int_charge
    return OpStats(
        len_a=int(a.size), len_b=int(b.size), eff_a=na, eff_b=nb,
        n_union=n_union, n_matches=n_matches, n_runs=n_runs,
        su_cycles_intersect=su_int, su_cycles_submerge=su_sub,
        cpu_steps=n_union, direction_changes=max(0, n_runs - 1),
    )
