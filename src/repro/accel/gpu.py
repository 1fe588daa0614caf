"""GPU model for pattern enumeration (Section 6.5).

The paper profiles a Tesla K40m running pattern enumeration and finds
the two bottlenecks this model is built from:

* **4.4 % warp utilization** — the branchy, data-dependent inner loop
  and wildly varying edge-list lengths leave most lanes idle, and the
  surviving lanes execute dependent global loads whose latency the few
  resident warps cannot hide, and
* **13 % global-memory bandwidth utilization** — threads gather edge
  lists from scattered addresses.

Execution time is the max of the compute-side and memory-side
throughput bounds.  The "without symmetry breaking" variant multiplies
the work by |Aut(pattern)| (redundant enumeration) but enjoys slightly
cheaper steps (fewer branches, less divergence) — the trade-off the
paper explicitly investigates, concluding that "the massive parallelism
on more computation cannot overweight less computation with more
branches".
"""

from __future__ import annotations

from repro.arch.trace import CycleReport, FrozenTrace, Trace

#: K40m CUDA lanes.
GPU_LANES = 2880
#: Measured warp utilization (Section 6.5).
WARP_UTILIZATION = 0.044
#: Within an *active* warp, divergence over the three-way compare
#: branch and ragged edge-list lengths idles most lanes too.
LANE_EFFICIENCY = 0.5
#: Memory bandwidth in bytes per SparseCore-equivalent cycle (K40m
#: 288 GB/s at the 1 GHz reference clock of Section 6.5).
MEM_BYTES_PER_CYCLE = 288.0
#: Measured bandwidth utilization (Section 6.5).
MEM_UTILIZATION = 0.13
#: Cycles per merge step on an active lane: a dependent global load
#: (~350 cycles on Kepler) whose latency low occupancy cannot hide.
STEP_LATENCY = 350.0
#: Extra per-step divergence when symmetry-breaking branches are added.
BREAKING_STEP_OVERHEAD = 1.4
#: Bytes per key (streams) used for the bandwidth bound.
KEY_BYTES = 4


class GpuModel:
    """Throughput model of GPM pattern enumeration on a K40m."""

    name = "gpu"

    def __init__(self, redundancy: int, symmetry_breaking: bool):
        """``redundancy`` is |Aut(pattern)|; with ``symmetry_breaking``
        the redundant work disappears but steps get branchier."""
        self.redundancy = max(1, int(redundancy))
        self.symmetry_breaking = symmetry_breaking

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        steps = float(t.cpu_steps.sum())
        nbytes = float(t.eff_elems.sum()) * KEY_BYTES
        if self.symmetry_breaking:
            step_cost = STEP_LATENCY * BREAKING_STEP_OVERHEAD
            work_factor = 1.0
        else:
            step_cost = STEP_LATENCY
            work_factor = float(self.redundancy)
        effective_lanes = GPU_LANES * WARP_UTILIZATION * LANE_EFFICIENCY
        compute = work_factor * steps * step_cost / effective_lanes
        memory = work_factor * nbytes / (MEM_BYTES_PER_CYCLE
                                         * MEM_UTILIZATION)
        total = max(compute, memory)
        return CycleReport(
            machine=self.name,
            cache_cycles=memory if memory >= compute else 0.0,
            branch_cycles=0.0,
            intersection_cycles=compute if compute > memory else 0.0,
            other_cycles=0.0,
            total_cycles=total,
            detail={
                "compute_bound_cycles": compute,
                "memory_bound_cycles": memory,
                "work_factor": work_factor,
                "symmetry_breaking": self.symmetry_breaking,
            },
        )
