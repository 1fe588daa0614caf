"""SparseCore cost model.

Costs a recorded trace as executed by the stream extension of
Section 4:

* each stream op runs on a Stream Unit at the parallel-comparison rate
  computed by the merge-run analysis (Figure 6 / Section 4.2),
* ops sharing a **burst** (the sub-ops of one ``S_NESTINTER``, or any
  region the software brackets) are independent; a burst's time is
  ``max(longest op, ceil(total SU work / num_sus),
  ceil(total elements / bandwidth))`` — the model behind the SU-count
  and bandwidth sweeps of Figures 12 and 13,
* singleton ops still overlap a little through the out-of-order window
  (``implicit_overlap``), which is why non-nested variants (TS/4CS/5CS)
  gain less from extra SUs — exactly the paper's observation,
* stream fetches were charged at record time with prefetch-friendly
  pipelined line costs (S-Cache bypasses L1 and hides latency on the
  known-sequential pattern, Section 4.3); scratchpad hits were free,
* value computation overlaps SVPU FLOPs with the SU's key intersection
  (Section 4.5),
* "other computation" on the host core partially overlaps stream work
  because stream ops occupy a single ROB entry (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.trace import NO_BURST, CycleReport, FrozenTrace, OpKind, Trace
from repro.obs.counters import NULL_COUNTERS

#: Fraction of scalar "other computation" hidden under stream-unit work
#: by the out-of-order core (Section 6.4: "SparseCore can overlap Other
#: computation with Intersection").
OTHER_OVERLAP = 0.6

#: Fraction of loop-exit branches still mispredicted on SparseCore
#: (stream ops remove the data-dependent inner branches; the remaining
#: loop branches are mostly pattern-predictable).
RESIDUAL_MISPRED_RATE = 0.08

#: Flush penalty of those residual mispredictions: the host core's, the
#: same 14 cycles as the CPU baseline's default ``mispredict_penalty``.
RESIDUAL_MISPRED_PENALTY = 14.0


#: Segment reductions kept per trace: one per distinct
#: (``implicit_overlap``, ``flop_cycles_per_pair``) pair, oldest dropped
#: first, so a sweep over those two fields cannot grow a trace unboundedly.
SEGMENT_MEMO_ENTRIES = 8


@dataclass(frozen=True)
class Segments:
    """The config-independent half of the burst aggregation.

    Ops are grouped into overlap segments (explicit bursts, plus
    implicit-overlap windows of singleton ops) and each segment reduced
    to its longest op, total SU work, and moved elements.  That depends
    on only ``implicit_overlap`` and ``flop_cycles_per_pair``; every
    other SparseCore field enters per segment (:meth:`times`) or as a
    scalar over the config-free sums kept alongside.
    """

    #: op index opening each segment
    starts: np.ndarray
    longest: np.ndarray
    work: np.ndarray
    moved: np.ndarray
    #: config-free sums the cost model needs: nested sub-ops, stall cycles
    n_nested: int
    sc_mem: float

    def times(self, config: SparseCoreConfig) -> np.ndarray:
        """Per-segment cycles: ``max(longest op, work / num_sus,
        elems / bandwidth)``."""
        return np.maximum(
            self.longest,
            np.maximum(self.work / config.num_sus,
                       self.moved / config.scache_bandwidth),
        )


def _reduce_segments(t: FrozenTrace, implicit_overlap: int,
                     flop_cycles_per_pair) -> Segments:
    # Value ops: SVPU FLOPs overlap the SU's key walk; take the max per
    # op before burst aggregation.
    su = np.maximum(t.su_cycles.astype(np.float64),
                    t.flop_pairs * flop_cycles_per_pair)
    if su.size == 0:
        starts = np.empty(0, dtype=np.int64)
        longest = work = moved = starts.astype(np.float64)
    else:
        # Group singleton ops into implicit-overlap windows.
        group = t.burst.copy()
        singles = group == NO_BURST
        if singles.any():
            # Consecutive windows of `implicit_overlap` singleton ops.
            idx = np.cumsum(singles) - 1
            group[singles] = -2 - (idx[singles] // max(1, implicit_overlap))
        # Segment boundaries: group ids are contiguous runs in issue order.
        starts = np.flatnonzero(
            np.concatenate(([True], group[1:] != group[:-1])))
        work = np.add.reduceat(su, starts)
        longest = np.maximum.reduceat(su, starts)
        moved = np.add.reduceat(t.eff_elems.astype(np.float64), starts)
    return Segments(starts=starts, longest=longest, work=work, moved=moved,
                    n_nested=int(t.nested.sum()),
                    sc_mem=float(t.sc_mem.sum()))


def segment_key(config: SparseCoreConfig) -> tuple:
    """The fields a segment reduction reads:
    ``(implicit_overlap, flop_cycles_per_pair)``.  Configs with equal
    keys share one reduction of a trace."""
    return (config.implicit_overlap, config.flop_cycles_per_pair)


def trace_segments(t: FrozenTrace, config: SparseCoreConfig) -> Segments:
    """``t``'s segment reduction under ``config``, memoised on ``t``.

    A trace re-priced at many design points (the Figure 12/13 variants,
    every :mod:`repro.explore` grid point) reduces its segments once
    per distinct :func:`segment_key`; each further config costs one
    pass of :meth:`Segments.times`.  Pricing more keys than the memo
    holds in an interleaved order re-reduces, so callers pricing many
    points group them by key.
    """
    key = segment_key(config)
    memo = t._segments
    segments = memo.get(key)
    if segments is None:
        if len(memo) >= SEGMENT_MEMO_ENTRIES:
            del memo[next(iter(memo))]
        segments = memo[key] = _reduce_segments(t, *key)
    return segments


class SparseCoreModel:
    """Cost model of the SparseCore processor extension."""

    name = "sparsecore"

    def __init__(self, config: SparseCoreConfig | None = None):
        self.config = config or SparseCoreConfig()

    # -- burst aggregation --------------------------------------------------

    def segment_times(self, trace: Trace | FrozenTrace
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment stream-compute times under SU/bandwidth limits.

        Ops are grouped into overlap segments (explicit bursts, plus
        implicit-overlap windows of singleton ops); each segment's time
        is ``max(longest op, ceil(work / num_sus), elems / bandwidth)``.
        Returns ``(starts, times)``: the op index opening each segment
        and that segment's cycles.  The cycle-attribution report
        (:mod:`repro.obs.attribution`) distributes exactly these times
        back over the ops of each segment, so the decomposition it
        prints is the cost model's own arithmetic, not a re-derivation.
        """
        t = trace.freeze()
        segments = trace_segments(t, self.config)
        return segments.starts, segments.times(self.config)

    # -- cost -----------------------------------------------------------------

    def cost(self, trace: Trace | FrozenTrace,
             counters=NULL_COUNTERS) -> CycleReport:
        t = trace.freeze()
        c = self.config
        segments = trace_segments(t, c)
        intersection = float(segments.times(c).sum())

        # Issue/translation overhead: singleton ops pay decode+SMT issue;
        # nested sub-ops pay the translator's micro-op expansion.
        n_nested = segments.n_nested
        n_plain = t.num_ops - n_nested
        issue = n_plain * c.op_issue_cycles + n_nested * c.nested_translate_cycles
        intersection += issue

        cache = segments.sc_mem

        # Residual branches: only the plain ops sit inside scalar loops.
        branch = n_plain * RESIDUAL_MISPRED_RATE * RESIDUAL_MISPRED_PENALTY

        scalar_instrs = t.shared_scalar_instrs + t.sc_only_scalar_instrs
        other_raw = scalar_instrs * c.scalar_cpi
        hidden = OTHER_OVERLAP * min(other_raw, intersection)
        other = other_raw - hidden

        total = intersection + cache + branch + other
        if counters.enabled:
            for kind in OpKind:
                n = int((t.kind == int(kind)).sum())
                if n:
                    counters.add(f"model.sc.ops.{kind.name.lower()}", n)
            counters.add("model.sc.ops.nested", n_nested)
            counters.add("model.sc.svpu_flop_pairs",
                         int(t.flop_pairs.sum()))
            counters.add("model.sc.su_cycles", int(t.su_cycles.sum()))
            counters.add("model.sc.issue_cycles", issue)
            counters.add("model.sc.intersection_cycles", intersection)
            counters.add("model.sc.cache_cycles", cache)
            counters.add("model.sc.branch_cycles", branch)
            counters.add("model.sc.other_cycles", other)
            counters.add("model.sc.hidden_other_cycles", hidden)
            counters.add("model.sc.total_cycles", total)
        return CycleReport(
            machine=self.name,
            cache_cycles=cache,
            branch_cycles=branch,
            intersection_cycles=intersection,
            other_cycles=other,
            total_cycles=total,
            detail={
                "issue_cycles": issue,
                "nested_subops": n_nested,
                "plain_ops": n_plain,
                "scalar_instrs": scalar_instrs,
                "hidden_other_cycles": hidden,
                "num_sus": c.num_sus,
                "bandwidth": c.scache_bandwidth,
            },
        )
