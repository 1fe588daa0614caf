"""FlexMiner model (ISCA 2021): pattern-aware GPM accelerator.

FlexMiner executes the *same* pattern-enumeration algorithm as
SparseCore (Section 6.3.1 stresses this), with a hardware exploration
engine and **cmap** connectivity checking: one operand's neighbor list
is materialized into a hash map, and each key of the other operand
probes it at one lookup per cycle.  Compared with SparseCore's SU this
has no parallel comparison — it cannot skip ``SU_BUFFER_WIDTH``
mismatching keys per cycle — which is exactly where the paper locates
its average 2.7x deficit ("this speedup comes from the parallel
comparison design inside SU").

Modelled per operation (the comparison uses one PE vs one SU):

* probe phase: ``min(|A|, |B|)`` lookups at 1/cycle,
* cmap build: amortized by FlexMiner's c-map cache; a miss rebuilds at
  1 insert/cycle.  We model the cache with the same LRU reuse logic as
  every other hierarchy (build cost charged on first touch),
* memory: edge lists prefetched by the hardware engine (pipelined line
  costs, like the S-Cache path),
* no host scalar work: the exploration loop is in hardware.
"""

from __future__ import annotations

import numpy as np

from repro.arch.trace import CycleReport, FrozenTrace, Trace

#: Fraction of candidate-side keys whose cmap build cost is *not*
#: amortized by FlexMiner's c-map cache (their cache works well; the
#: paper grants them "full overlapping of any non-dependent access").
CMAP_BUILD_MISS_FRACTION = 0.5

#: Cycles per cmap probe: hash + bank access + the exploration
#: engine's per-candidate bookkeeping (extend/prune decision).  The SU
#: compares sixteen keys per cycle against this one-candidate-per-probe
#: pipeline — the parallel-comparison advantage of Section 6.3.1.
PROBE_CYCLES = 3.0

#: Fixed per-operation engine overhead (task dispatch in the PE).
OP_OVERHEAD = 4.0


class FlexMinerModel:
    """Trace cost model of a single FlexMiner PE."""

    name = "flexminer"

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        # Probes: one cycle per key of the smaller operand; the smaller
        # side is at most half the merge path.
        probes = np.minimum(t.eff_elems - t.out_len, t.eff_elems) / 2.0
        probe_cycles = float(np.ceil(probes).sum()) * PROBE_CYCLES
        build_cycles = float(
            (t.eff_elems / 2.0).sum()) * CMAP_BUILD_MISS_FRACTION
        compute = probe_cycles + build_cycles + OP_OVERHEAD * t.num_ops
        # Same prefetch-friendly data movement as the S-Cache path.
        cache = float(t.sc_mem.sum())
        total = compute + cache
        return CycleReport(
            machine=self.name,
            cache_cycles=cache,
            branch_cycles=0.0,
            intersection_cycles=compute,
            other_cycles=0.0,
            total_cycles=total,
            detail={"probe_cycles": probe_cycles,
                    "cmap_build_cycles": build_cycles},
        )
