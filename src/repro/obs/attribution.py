"""Cycle attribution: decompose a model's total cycles into buckets.

The SparseCore cost model reports four coarse components (cache,
branch, other, intersection).  This module refines that into the
five-way decomposition the evaluation reasons in terms of —

* ``intersect`` — Stream Unit time spent on ``S_INTER``(-like) ops,
* ``merge`` — SU time on ``S_SUB``/``S_MERGE`` (window-rate emission),
* ``value`` — SU/SVPU time on ``S_VINTER``/``S_VMERGE``,
* ``scalar`` — host-core scalar work plus residual branch cost,
* ``memory`` — stream/value movement stalls,

— and **asserts the buckets sum to the model's reported total**.  The
stream-compute component is split by distributing each overlap
segment's time (exactly the per-segment values the cost model sums,
via :meth:`~repro.arch.sparsecore.SparseCoreModel.segment_times`) over
its ops proportionally to their SU work, then adding each op's issue/
translation overhead.  Per-segment rounding residue is folded into the
segment's first op, so the distribution re-sums to the segment time
exactly; the final check is therefore a true self-consistency invariant
of the cycle model, not a tolerance hidden in reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.sparsecore import SparseCoreModel
from repro.arch.trace import FrozenTrace, OpKind, Trace

#: Bucket order used by reports and JSON output.
BUCKETS = ("intersect", "merge", "value", "scalar", "memory")

#: Stream-op kind -> attribution bucket.  Subtraction shares the
#: merge bucket: both emit at window rate (Section 4.2).
KIND_BUCKET = {
    int(OpKind.INTERSECT): "intersect",
    int(OpKind.SUBTRACT): "merge",
    int(OpKind.MERGE): "merge",
    int(OpKind.VINTER): "value",
    int(OpKind.VMERGE): "value",
}

#: Relative/absolute slack of the sums-to-total check: covers float
#: summation order only (the decomposition is exact by construction).
REL_TOL = 1e-9
ABS_TOL = 1e-6


class AttributionError(AssertionError):
    """The bucket decomposition does not re-sum to the model total."""


@dataclass
class Attribution:
    """Five-bucket cycle decomposition of one trace on one machine."""

    workload: str
    machine: str
    total_cycles: float
    buckets: dict[str, float]
    detail: dict = field(default_factory=dict)

    @property
    def attributed_cycles(self) -> float:
        return float(sum(self.buckets.values()))

    def check(self) -> "Attribution":
        """Assert buckets sum to the model total; returns self."""
        total = self.total_cycles
        attributed = self.attributed_cycles
        if abs(attributed - total) > max(ABS_TOL, REL_TOL * abs(total)):
            raise AttributionError(
                f"{self.workload}/{self.machine}: attributed cycles "
                f"{attributed!r} != model total {total!r} "
                f"(delta {attributed - total:+.6g})"
            )
        negative = {k: v for k, v in self.buckets.items() if v < -ABS_TOL}
        if negative:
            raise AttributionError(
                f"{self.workload}/{self.machine}: negative buckets "
                f"{negative}"
            )
        return self

    def fractions(self) -> dict[str, float]:
        total = self.total_cycles or 1.0
        return {k: v / total for k, v in self.buckets.items()}

    def rows(self) -> list[dict]:
        """Table rows (one per bucket) for human rendering."""
        fracs = self.fractions()
        return [
            {"bucket": name, "cycles": self.buckets[name],
             "share": f"{100 * fracs[name]:.1f}%"}
            for name in BUCKETS
        ] + [{"bucket": "total", "cycles": self.total_cycles,
              "share": "100.0%"}]

    def to_json(self) -> dict:
        from repro.obs.schema import to_jsonable

        return to_jsonable({
            "workload": self.workload,
            "machine": self.machine,
            "total_cycles": self.total_cycles,
            "attributed_cycles": self.attributed_cycles,
            "buckets": dict(self.buckets),
            "fractions": self.fractions(),
            "detail": self.detail,
        })


def attribute(trace: Trace | FrozenTrace, model: SparseCoreModel | None = None,
              workload: str | None = None) -> Attribution:
    """Attribute a trace's SparseCore cycles to the five buckets."""
    model = model or SparseCoreModel()
    t = trace.freeze()
    c = model.config
    report = model.cost(t)

    per_op = np.zeros(t.num_ops, dtype=np.float64)
    issue = np.zeros(t.num_ops, dtype=np.float64)
    if t.num_ops:
        # Mirror the model: SVPU FLOPs overlap the SU walk per op.
        su = np.maximum(
            t.su_cycles.astype(np.float64),
            t.flop_pairs * c.flop_cycles_per_pair,
        )
        starts, times = model.segment_times(t)
        seg_of_op = np.zeros(t.num_ops, dtype=np.int64)
        seg_of_op[starts[1:]] = 1
        seg_of_op = np.cumsum(seg_of_op)
        seg_work = np.add.reduceat(su, starts)
        seg_len = np.diff(np.concatenate((starts, [t.num_ops])))
        # Proportional share of the segment time; idle segments (all
        # zero-cycle ops) split evenly.
        weights = np.where(seg_work[seg_of_op] > 0,
                           su / np.where(seg_work[seg_of_op] > 0,
                                         seg_work[seg_of_op], 1.0),
                           1.0 / seg_len[seg_of_op])
        per_op = weights * times[seg_of_op]
        # Fold float residue into each segment's first op so per-segment
        # shares re-sum to the segment time exactly.
        per_op[starts] += times - np.add.reduceat(per_op, starts)
        # Issue/translation overhead is per-op and kind-attributable.
        issue = np.where(t.nested, float(c.nested_translate_cycles),
                         float(c.op_issue_cycles))

    buckets = {name: 0.0 for name in BUCKETS}
    kind_cycles: dict[str, float] = {}
    kind_counts: dict[str, int] = {}
    for kind_value, bucket in KIND_BUCKET.items():
        mask = t.kind == kind_value
        if not mask.any():
            continue
        cycles = float(per_op[mask].sum() + issue[mask].sum())
        buckets[bucket] += cycles
        name = OpKind(kind_value).name.lower()
        kind_cycles[name] = cycles
        kind_counts[name] = int(mask.sum())

    buckets["memory"] = report.cache_cycles
    buckets["scalar"] = report.other_cycles + report.branch_cycles

    stream_time = float(per_op.sum()) if t.num_ops else 0.0
    detail = {
        "per_kind_cycles": kind_cycles,
        "per_kind_ops": kind_counts,
        "num_ops": t.num_ops,
        "issue_cycles": float(issue.sum()) if t.num_ops else 0.0,
        "stream_time_cycles": stream_time,
        "branch_cycles": report.branch_cycles,
        "other_cycles": report.other_cycles,
        "su_occupancy": (
            float(t.su_cycles.sum()) / (c.num_sus * stream_time)
            if stream_time else 0.0),
        "num_sus": c.num_sus,
    }
    return Attribution(
        workload=workload or t.name,
        machine=model.name,
        total_cycles=report.total_cycles,
        buckets=buckets,
        detail=detail,
    )


__all__ = ["Attribution", "AttributionError", "BUCKETS", "KIND_BUCKET",
           "attribute"]
