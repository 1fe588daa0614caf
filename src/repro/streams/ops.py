"""Functional semantics of the stream computation instructions.

These are the ground-truth kernels behind ``S_INTER``/``S_SUB``/
``S_MERGE`` (and their ``.C`` counting variants), ``S_VINTER`` and
``S_VMERGE`` (Table 1 of the paper).  They operate on plain sorted
``int64`` key arrays (plus ``float64`` value arrays for the value ops) —
the representation CSR edge lists and sparse fibers already use — so the
machine layer can call them with zero-copy slices.  The
:class:`~repro.streams.stream.Stream` classes offer thin object-level
wrappers.

Upper bounds implement the paper's *early termination* (Section 2.2):
``bound >= 0`` restricts the output to keys strictly below ``bound``;
``bound = UNBOUNDED`` (-1) disables it, exactly as the ISA's R3 operand.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import StreamError
from repro.streams.kernels import sorted_union
from repro.streams.runstats import UNBOUNDED, truncate_bound

__all__ = [
    "UNBOUNDED",
    "intersect",
    "intersect_count",
    "subtract",
    "subtract_count",
    "merge",
    "merge_count",
    "vinter",
    "vinter_mac_cross",
    "repeat_streams",
    "vmerge",
    "ValueOp",
]


def _match_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over ``a`` marking keys that also occur in ``b``."""
    if a.size == 0 or b.size == 0:
        return np.zeros(a.size, dtype=bool)
    idx = np.searchsorted(b, a)
    mask = idx < b.size
    mask[mask] = b[idx[mask]] == a[mask]
    return mask


def intersect(a: np.ndarray, b: np.ndarray, bound: int = UNBOUNDED) -> np.ndarray:
    """Sorted intersection of two sorted key arrays (``S_INTER``)."""
    a = truncate_bound(a, bound)
    b = truncate_bound(b, bound)
    return a[_match_mask(a, b)]


def intersect_count(a: np.ndarray, b: np.ndarray, bound: int = UNBOUNDED) -> int:
    """Number of common keys (``S_INTER.C``)."""
    a = truncate_bound(a, bound)
    b = truncate_bound(b, bound)
    return int(np.count_nonzero(_match_mask(a, b)))


def subtract(a: np.ndarray, b: np.ndarray, bound: int = UNBOUNDED) -> np.ndarray:
    """Sorted difference ``a - b`` (``S_SUB``)."""
    a = truncate_bound(a, bound)
    b = truncate_bound(b, bound)
    return a[~_match_mask(a, b)]


def subtract_count(a: np.ndarray, b: np.ndarray, bound: int = UNBOUNDED) -> int:
    """Number of keys in ``a - b`` (``S_SUB.C``)."""
    a = truncate_bound(a, bound)
    b = truncate_bound(b, bound)
    return int(np.count_nonzero(~_match_mask(a, b)))


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted key arrays (``S_MERGE``).

    A linear sorted-union kernel: since both operands are already
    sorted (the stream contract), the union is a single interleave plus
    a duplicate drop — no re-sort.  Bit-identical to ``np.union1d`` on
    sorted inputs.
    """
    return sorted_union(a, b)


def merge_count(a: np.ndarray, b: np.ndarray) -> int:
    """Number of keys in the union (``S_MERGE.C``)."""
    return int(merge(a, b).size)


class ValueOp:
    """A reduction operator for ``S_VINTER`` (the IMM operand).

    The paper's SVPU performs a commutative reduction over the value
    pairs of intersected keys: multiply-accumulate by default, with MAX
    ("choose the maximum and accumulate"), MIN, "or any reduction
    operation".  New operations register themselves by name, mirroring
    how the dedicated functional unit "can be easily extended to perform
    new operations".
    """

    _registry: Dict[str, "ValueOp"] = {}

    def __init__(
        self,
        name: str,
        combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
        *,
        flops_per_pair: int = 2,
    ):
        self.name = name
        self.combine = combine
        self.flops_per_pair = flops_per_pair

    def __repr__(self) -> str:
        return f"ValueOp({self.name!r})"

    @classmethod
    def register(cls, name: str, combine, *, flops_per_pair: int = 2) -> "ValueOp":
        op = cls(name, combine, flops_per_pair=flops_per_pair)
        cls._registry[name.upper()] = op
        return op

    @classmethod
    def by_name(cls, name: str) -> "ValueOp":
        try:
            return cls._registry[name.upper()]
        except KeyError:
            raise StreamError(f"unknown value op {name!r}") from None

    @classmethod
    def names(cls) -> list[str]:
        return sorted(cls._registry)


MAC = ValueOp.register("MAC", lambda va, vb: va * vb, flops_per_pair=2)
MAX = ValueOp.register("MAX", np.maximum, flops_per_pair=2)
MIN = ValueOp.register("MIN", np.minimum, flops_per_pair=2)


def vinter(
    a_keys: np.ndarray,
    a_vals: np.ndarray,
    b_keys: np.ndarray,
    b_vals: np.ndarray,
    op: ValueOp | str = MAC,
    bound: int = UNBOUNDED,
) -> float:
    """Intersect keys, combine the matched value pairs, and accumulate.

    This is ``S_VINTER``: e.g. with MAC it computes the sparse dot
    product of two (key,value) streams.
    """
    if isinstance(op, str):
        op = ValueOp.by_name(op)
    a_keys_eff = truncate_bound(a_keys, bound)
    b_keys_eff = truncate_bound(b_keys, bound)
    a_vals = a_vals[: a_keys_eff.size]
    b_vals = b_vals[: b_keys_eff.size]
    mask_a = _match_mask(a_keys_eff, b_keys_eff)
    if not mask_a.any():
        return 0.0
    pos_in_b = np.searchsorted(b_keys_eff, a_keys_eff[mask_a])
    combined = op.combine(a_vals[mask_a], b_vals[pos_in_b])
    return float(np.sum(combined))


def repeat_streams(sizes: np.ndarray, times: int) -> np.ndarray:
    """Indices that repeat each of ``len(sizes)`` streams held end to
    end (stream ``i`` is the next ``sizes[i]`` elements) ``times`` times
    before the next: ``x[repeat_streams(sizes, t)]`` holds stream 0
    ``t`` times, then stream 1 ``t`` times, and so on."""
    out = np.repeat(sizes, times)
    skip = np.cumsum(out) - out - np.repeat(np.cumsum(sizes) - sizes, times)
    return np.arange(int(out.sum()), dtype=np.int64) - np.repeat(skip, out)


def vinter_mac_cross(
    a_keys: np.ndarray,
    a_vals: np.ndarray,
    a_sizes: np.ndarray,
    b_keys: np.ndarray,
    b_vals: np.ndarray,
    b_sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unbounded MAC ``S_VINTER`` of every ``a`` stream against every
    ``b`` stream.

    ``a_keys``/``a_vals`` hold ``len(a_sizes)`` streams end to end
    (stream ``i`` is the next ``a_sizes[i]`` pairs), and ``b_*`` hold
    ``len(b_sizes)``.  Returns the match counts and the values as two
    ``len(a_sizes) x len(b_sizes)`` arrays: entry ``(i, j)`` is
    ``vinter(a_i keys, a_i vals, b_j keys, b_j vals, "MAC")``, bit for
    bit.  Stream ``j`` of ``b`` is shifted into its own key range, so
    ``b``'s keys increase across the batch, and every key of every
    ``a`` stream, shifted into each range in turn, finds its match with
    one ``searchsorted``; shifts that would overflow int64 split ``b``
    in halves.  Each pair's products then sit contiguously in ``a``'s
    key order, as ``vinter`` forms them.  Pairs with the same match
    count are summed together as the rows of one C-contiguous block
    along ``axis=1``, which reduces each row exactly as ``np.sum``
    reduces it alone.  (``np.add.reduceat`` does not: its segment sums
    differ from ``np.sum`` in the last bits on most segments of three
    or more elements.)
    """
    r, s = a_sizes.size, b_sizes.size
    counts = np.zeros(r * s, dtype=np.int64)
    values = np.zeros(r * s, dtype=np.float64)
    if not (a_keys.size and b_keys.size):
        return counts.reshape(r, s), values.reshape(r, s)
    lo = min(int(a_keys.min()), int(b_keys.min()))
    span = max(int(a_keys.max()), int(b_keys.max())) - lo + 1
    if s > 1 and span > (2 ** 62) // s:
        mid = s // 2
        cut = int(b_sizes[:mid].sum())
        halves = (vinter_mac_cross(a_keys, a_vals, a_sizes, b_keys[:cut],
                                   b_vals[:cut], b_sizes[:mid]),
                  vinter_mac_cross(a_keys, a_vals, a_sizes, b_keys[cut:],
                                   b_vals[cut:], b_sizes[mid:]))
        return tuple(np.hstack(pair) for pair in zip(*halves))
    shifts = np.arange(s, dtype=np.int64) * span - lo
    b_shifted = b_keys + np.repeat(shifts, b_sizes)
    # Pair (i, j), row-major, probes with a_i's keys shifted by j's shift.
    sizes = np.repeat(a_sizes, s)
    idx = repeat_streams(a_sizes, s)
    probe = a_keys[idx] + np.repeat(np.tile(shifts, r), sizes)
    pos = np.searchsorted(b_shifted, probe)
    hit = b_shifted.take(pos, mode="clip") == probe
    counts = np.bincount(np.repeat(np.arange(r * s), sizes)[hit],
                         minlength=r * s)
    products = a_vals[idx[hit]] * b_vals[pos[hit]]
    starts = np.cumsum(counts) - counts
    for count in np.unique(counts[counts > 0]).tolist():
        pairs = np.flatnonzero(counts == count)
        block = products[starts[pairs, None] + np.arange(count)]
        values[pairs] = block.sum(axis=1)
    return counts.reshape(r, s), values.reshape(r, s)


def vmerge(
    alpha: float,
    a_keys: np.ndarray,
    a_vals: np.ndarray,
    beta: float,
    b_keys: np.ndarray,
    b_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled sparse vector addition ``alpha*A + beta*B`` (``S_VMERGE``).

    Returns the merged key array and the combined value array, matching
    the paper's worked example: merging ``[(1,4),(3,21)]`` and
    ``[(1,1),(5,36)]`` with scales 2 and 3 yields
    ``[(1,11),(3,42),(5,108)]``.
    """
    out_keys = sorted_union(a_keys, b_keys)
    out_vals = np.zeros(out_keys.size, dtype=np.float64)
    # Stream keys are duplicate-free, so every input key lands on a
    # distinct output slot: a plain fancy-indexed accumulate replaces
    # the (much slower) unbuffered np.add.at scatter.  A-side first,
    # then B-side, preserving the original summation order bit-exactly.
    if a_keys.size:
        out_vals[np.searchsorted(out_keys, a_keys)] += alpha * a_vals
    if b_keys.size:
        out_vals[np.searchsorted(out_keys, b_keys)] += beta * b_vals
    return out_keys, out_vals
