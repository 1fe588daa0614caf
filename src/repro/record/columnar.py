"""The recorder: whole-operation capture, batch analysis.

Every recorded stream op — from the recording
:class:`~repro.machine.context.Machine`, probed or not, and from the
instruction-level :class:`~repro.arch.executor.StreamExecutor` — goes
through :meth:`ColumnarTrace.add_op_keys`, one op per call, or through
:meth:`ColumnarTrace.add_ops`, a block of ops given as flat arrays
(``Machine.vinter_sweep``'s cross products).  Analysing each op as it
is recorded (one :func:`~repro.streams.runstats.analyze_pair` walk per
op, as the row-tuple :class:`~repro.arch.trace.Trace` reference takes
it) would pay per-op interpreter work that dominates cold recording.
:class:`ColumnarTrace` decouples traversal from analysis instead:
recording an op only stores references to its (bound-truncated) key
arrays plus the scalar operands (kind, burst id, the access-log rows it
is charged for), and the merge-run statistics of *all* pending
operations are computed in one vectorised pass at
:meth:`ColumnarTrace.freeze` time (or earlier, when
:data:`COMPACT_ELEMS` bounds held memory).  The same pass asks the
trace's access log (:class:`~repro.arch.transfer.TransferModel`) to
price the rows logged so far and sum each op's charge, then drops the
ops' row indices.  A block from :meth:`ColumnarTrace.add_ops` goes
through the same pass at once, after the pending ops.

The batch analyser :func:`analyze_segments` concatenates every
operand pair into two flat key arrays (:func:`analyze_flat` takes them
so), offsetting each operation's keys
by ``op_id * K`` (``K`` greater than any key) so one global sorted
union interleaves all operations at once while keeping them disjoint.
Two binary searches give every key its rank in that union, which is
never built.  Per-op statistics then fall out of ``bincount``
aggregations over the union's source labels and run boundaries — the
exact quantities
:func:`~repro.streams.runstats.analyze_pair` defines, including the
terminal-run exemption of the intersection cycle count.

:meth:`ColumnarTrace.freeze` emits a regular
:class:`~repro.arch.trace.FrozenTrace` through
:meth:`~repro.arch.trace.FrozenTrace.from_columns`: the same columns,
dtypes and values a :class:`~repro.arch.trace.Trace` fed the per-op
statistics freezes to, so serialized payloads are byte-identical to the
per-op reference and every downstream consumer (pricing, cost models,
the run cache) reads one format.
"""

from __future__ import annotations

import numpy as np

from repro.arch.trace import COLUMNS, NO_BURST, FrozenTrace, OpKind
from repro.streams.runstats import SU_BUFFER_WIDTH, UNBOUNDED, truncate_bound

#: Pending key elements that trigger a partial compaction.  Bounds held
#: memory (references pin operand arrays until analysed) and keeps every
#: batch-analysis pass inside the last-level cache — large batches cost
#: ~2x more per element from DRAM traffic alone (measured: 256k-element
#: batches analyse at ~110ns/elem, 64k batches at ~75ns/elem).
COMPACT_ELEMS = 65_536

def analyze_segments(a_list, b_list, width: int = SU_BUFFER_WIDTH):
    """Batched :func:`~repro.streams.runstats.analyze_pair` over n ops.

    ``a_list``/``b_list`` hold the *effective* (already bound-truncated)
    sorted key arrays of each operation.  Returns seven aligned int64
    columns: ``eff_a``, ``eff_b``, ``n_union``, ``n_matches``,
    ``n_runs``, ``su_cycles_intersect``, ``su_cycles_submerge`` —
    value-identical to calling ``analyze_pair`` per op.
    """
    n = len(a_list)
    na = np.fromiter((a.size for a in a_list), count=n, dtype=np.int64)
    nb = np.fromiter((b.size for b in b_list), count=n, dtype=np.int64)
    A = np.concatenate(a_list) if na.sum() else np.empty(0, dtype=np.int64)
    B = np.concatenate(b_list) if nb.sum() else np.empty(0, dtype=np.int64)
    return analyze_flat(A, na, B, nb, width)


def analyze_flat(A: np.ndarray, na: np.ndarray, B: np.ndarray,
                 nb: np.ndarray, width: int = SU_BUFFER_WIDTH):
    """:func:`analyze_segments` over operands given end to end: op ``i``
    takes the next ``na[i]`` keys of ``A`` and ``nb[i]`` of ``B``."""
    n = na.size
    n_union = np.zeros(n, dtype=np.int64)
    n_matches = np.zeros(n, dtype=np.int64)
    n_runs = np.zeros(n, dtype=np.int64)
    su_int = np.zeros(n, dtype=np.int64)
    su_sub = np.zeros(n, dtype=np.int64)
    if A.size == 0 and B.size == 0:
        return na, nb, n_union, n_matches, n_runs, su_int, su_sub
    A = A.astype(np.int64, copy=False)
    B = B.astype(np.int64, copy=False)

    kmax = max(A.max() if A.size else 0, B.max() if B.size else 0)
    kmin = min(A.min() if A.size else 0, B.min() if B.size else 0)
    shift = -int(kmin) if kmin < 0 else 0
    K = int(kmax) + shift + 1
    if n > 1 and K > (2 ** 62) // n:
        # Offsets would overflow int64: split the batch and recurse.
        mid = n // 2
        cut_a, cut_b = int(na[:mid].sum()), int(nb[:mid].sum())
        left = analyze_flat(A[:cut_a], na[:mid], B[:cut_b], nb[:mid], width)
        right = analyze_flat(A[cut_a:], na[mid:], B[cut_b:], nb[mid:],
                             width)
        return tuple(np.concatenate((lo, hi))
                     for lo, hi in zip(left, right))

    op_ids = np.arange(n, dtype=np.int64)
    A2 = A + np.repeat(op_ids * K, na) + shift
    B2 = B + np.repeat(op_ids * K, nb) + shift

    # The offsets make A2 and B2 *globally* strictly increasing, so the
    # union of all ops falls out of two binary searches: B's keys in A
    # (the matches, and each unmatched B key's count of A keys before
    # it), then A's keys in B's unmatched ones.  A key's merge rank is
    # its own index plus the other side's keys before it.
    posB = np.searchsorted(A2, B2)
    matchB = np.zeros(B2.size, dtype=bool)
    inside = posB < A2.size
    matchB[inside] = A2[posB[inside]] == B2[inside]
    onlyB = ~matchB
    b_only = B2[onlyB]
    posA_u = np.arange(A2.size, dtype=np.int64) \
        + np.searchsorted(b_only, A2)
    posB_u = np.arange(b_only.size, dtype=np.int64) + posB[onlyB]
    size = A2.size + b_only.size
    src = np.empty(size, dtype=np.int8)  # 1=A, 2=B, 3=both
    srcA = np.ones(A2.size, dtype=np.int8)
    srcA[posB[matchB]] = 3
    src[posA_u] = srcA
    src[posB_u] = 2

    n_matches = np.bincount(np.repeat(op_ids, nb)[matchB], minlength=n)
    n_union = na + nb - n_matches
    # Each op's union slots are contiguous, in op order.
    op_u = np.repeat(op_ids, n_union)

    # Run boundaries: the source changes *or* a new operation starts.
    change = np.empty(size, dtype=bool)
    change[0] = True
    np.logical_or(src[1:] != src[:-1], op_u[1:] != op_u[:-1],
                  out=change[1:])
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.append(run_starts, size))
    run_src = src[run_starts]
    run_op = op_u[run_starts]
    n_runs = np.bincount(run_op, minlength=n)

    windowed = -(run_lens // -width)  # ceil div, int64 throughout
    su_sub = np.bincount(run_op, weights=windowed,
                         minlength=n).astype(np.int64)
    nonmatch = run_src != 3
    su_int = np.bincount(run_op[nonmatch], weights=windowed[nonmatch],
                         minlength=n).astype(np.int64) + n_matches
    # Terminal single-source run of each op is free for intersections
    # (the SU halts once either operand is exhausted) — same exemption
    # analyze_pair applies to its last run.
    last = np.empty(run_op.size, dtype=bool)
    last[-1] = True
    np.not_equal(run_op[1:], run_op[:-1], out=last[:-1])
    term = last & nonmatch
    su_int[run_op[term]] -= windowed[term]

    return na, nb, n_union, n_matches, n_runs, su_int, su_sub


class ColumnarTrace:
    """Deferred-analysis trace with the :class:`Trace` recording API.

    Scalar accounting (:meth:`add_scalar` and friends), burst ids, and
    :meth:`freeze` behave exactly like :class:`Trace`; the per-op entry
    point is :meth:`add_op_keys`, which captures operand *arrays*
    instead of pre-computed :class:`~repro.streams.runstats.OpStats`,
    and :meth:`add_ops` records a block of ops given as flat arrays.
    """

    __slots__ = ("name", "shared_scalar_instrs", "cpu_only_scalar_instrs",
                 "sc_only_scalar_instrs", "_next_burst", "_frozen",
                 "_width", "compact_elems", "_pending", "_append_pending",
                 "_pending_elems", "_segments", "_n_ops", "_log")

    def __init__(self, name: str = "trace", *,
                 width: int = SU_BUFFER_WIDTH,
                 compact_elems: int = COMPACT_ELEMS, log=None):
        self.name = name
        #: the access log the ops' memory charges come from (a
        #: :class:`~repro.arch.transfer.TransferModel`; None: no charges)
        self._log = log
        self.shared_scalar_instrs = 0
        self.cpu_only_scalar_instrs = 0
        self.sc_only_scalar_instrs = 0
        self._next_burst = 0
        self._frozen: FrozenTrace | None = None
        self._width = width
        #: pending operand keys that trigger a compaction; bulk callers
        #: size their :meth:`add_ops` blocks by it too
        self.compact_elems = compact_elems
        #: deferred ops: (kind, a_eff, b_eff, burst, nested, mem,
        #: flop_pairs)
        self._pending: list[tuple] = []
        self._append_pending = self._pending.append
        self._pending_elems = 0
        #: analysed column batches, each a tuple of arrays in
        #: :data:`~repro.arch.trace.COLUMNS` order
        self._segments: list[tuple] = []
        self._n_ops = 0

    # -- recording ---------------------------------------------------------

    def new_burst(self) -> int:
        """Allocate a burst id (ops sharing it are independent work)."""
        self._next_burst += 1
        return self._next_burst

    def add_op_keys(self, kind: OpKind, a_keys: np.ndarray,
                    b_keys: np.ndarray, bound: int = UNBOUNDED, *,
                    burst: int = NO_BURST, nested: bool = False,
                    mem: tuple = (), flop_pairs: int = 0) -> None:
        """Record one stream op by reference; analysis happens in bulk.

        The bound truncation is applied *now* (it is cheap and lets the
        batch analyser treat every operand as effective keys); operand
        arrays are held by reference until the next compaction, per the
        stream contract that key arrays are never mutated in place while
        a trace is open.  ``mem`` holds the access-log rows the op is
        charged for, in the order its charge sums them.
        """
        self._frozen = None
        if bound >= 0:
            a_eff = truncate_bound(a_keys, bound)
            b_eff = truncate_bound(b_keys, bound)
        else:
            a_eff, b_eff = a_keys, b_keys
        self._append_pending((int(kind), a_eff, b_eff, burst, nested, mem,
                              flop_pairs))
        self._n_ops += 1
        self._pending_elems += a_eff.size + b_eff.size
        if self._pending_elems >= self.compact_elems:
            self._compact()

    def add_ops(self, kind: OpKind, a_keys: np.ndarray,
                a_sizes: np.ndarray, b_keys: np.ndarray,
                b_sizes: np.ndarray, flop_pairs: np.ndarray, *,
                mem: np.ndarray, mem_counts: np.ndarray,
                burst: int = NO_BURST, nested: bool = False) -> None:
        """Record ``len(a_sizes)`` ops of one kind at once, analysed on
        the spot.

        Op ``i`` takes the next ``a_sizes[i]`` keys of ``a_keys`` and
        ``b_sizes[i]`` of ``b_keys`` (effective keys, end to end), makes
        ``flop_pairs[i]`` flop pairs and is charged for the next
        ``mem_counts[i]`` access-log rows of ``mem``, in the order its
        charge sums them.  The ops pending from
        :meth:`add_op_keys` are analysed first, so the block lands after
        them, and the frozen trace is the one an :meth:`add_op_keys`
        call per op would give.
        """
        n = a_sizes.size
        if not n:
            return
        self._compact()
        self._frozen = None
        if self._log is not None:
            charges = self._log.charge_rows(mem, mem_counts)
        elif mem.size:
            raise ValueError("memory charges need an access log")
        else:
            charges = np.zeros(n), np.zeros(n)
        self._add_segment(
            np.full(n, kind, dtype=np.int8), analyze_flat(
                a_keys, a_sizes.astype(np.int64, copy=False), b_keys,
                b_sizes.astype(np.int64, copy=False), self._width),
            flop_pairs.astype(np.int64), np.full(n, burst, dtype=np.int64),
            np.full(n, nested, dtype=bool), charges)
        self._n_ops += n

    def add_scalar(self, n: int) -> None:
        """Scalar instructions both machines execute (app logic)."""
        self.shared_scalar_instrs += n

    def add_cpu_scalar(self, n: int) -> None:
        """Scalar loop instructions only the scalar CPU needs."""
        self.cpu_only_scalar_instrs += n

    def add_sc_scalar(self, n: int) -> None:
        """Scalar instructions only SparseCore's host core needs."""
        self.sc_only_scalar_instrs += n

    # -- batch analysis ----------------------------------------------------

    def _compact(self) -> None:
        """Analyse every pending op into one columnar segment."""
        pend = self._pending
        if not pend:
            return
        kind_l, a_l, b_l, burst_l, nested_l, mem_l, flop_l = zip(*pend)
        if self._log is None:
            if any(mem_l):
                raise ValueError("memory charges need an access log")
            charges = np.zeros(len(pend)), np.zeros(len(pend))
        else:
            charges = self._log.charges(mem_l)
        self._add_segment(
            np.array(kind_l, dtype=np.int8),
            analyze_segments(a_l, b_l, self._width),
            np.array(flop_l, dtype=np.int64),
            np.array(burst_l, dtype=np.int64),
            np.array(nested_l, dtype=bool), charges)
        self._pending = []
        self._append_pending = self._pending.append
        self._pending_elems = 0

    def _add_segment(self, kind, stats, flop_pairs, burst, nested,
                     charges) -> None:
        """Append analysed ops as one segment of frozen columns."""
        eff_a, eff_b, n_union, n_matches, n_runs, su_int, su_sub = stats
        # Kind dispatch, vectorised (cf. Trace.add_op): INTERSECT/VINTER
        # emit one match per cycle, SUBTRACT/MERGE/VMERGE at window rate.
        is_inter = (kind == 0) | (kind == 3)
        su_cycles = np.where(is_inter, su_int, su_sub)
        out_len = np.where(is_inter, n_matches,
                           np.where(kind == 1, eff_a - n_matches, n_union))
        self._segments.append((
            kind, su_cycles, n_union, np.maximum(n_runs - 1, 0),
            eff_a + eff_b, out_len, flop_pairs, burst, nested, *charges,
        ))

    # -- introspection -----------------------------------------------------

    @property
    def num_ops(self) -> int:
        return self._n_ops

    def freeze(self) -> FrozenTrace:
        """Snapshot into numpy arrays for the cost models (cached)."""
        if self._frozen is None:
            self._compact()
            if self._log is not None:
                self._log.price()
            segs = self._segments
            if len(segs) == 1:
                cols = segs[0]
            elif segs:
                # Column by column, dropping each batch's column once it
                # is copied: freezing holds one copy of the ops plus one
                # column, and the frozen columns become the one batch.
                batches = [list(seg) for seg in segs]
                segs.clear()
                cols = []
                for i in range(len(COLUMNS)):
                    cols.append(np.concatenate([b[i] for b in batches]))
                    for batch in batches:
                        batch[i] = None
                segs.append(tuple(cols))
            else:
                cols = [()] * len(COLUMNS)
            self._frozen = FrozenTrace.from_columns(
                self.name, cols, self.shared_scalar_instrs,
                self.cpu_only_scalar_instrs, self.sc_only_scalar_instrs)
        return self._frozen

    def __repr__(self) -> str:
        return f"ColumnarTrace({self.name!r}, ops={self.num_ops})"


__all__ = ["COMPACT_ELEMS", "ColumnarTrace", "analyze_flat",
           "analyze_segments"]
