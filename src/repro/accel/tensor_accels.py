"""Tensor accelerator models: OuterSPACE, ExTensor, Gamma (Section 6.9.2).

Each model follows the simplifications the paper states it used:

* **OuterSPACE** (outer-product): allocation latency hidden, scratchpad
  hides element-grab latency; we model the PE stream-through and the
  HMC transfer at the same per-line pipelined cost as SparseCore's L1d
  latency class.
* **ExTensor** (inner-product): PE with the *same number of parallel
  comparators as SparseCore* (paper's fairness choice) plus
  hierarchical intersection that skips empty coordinate blocks; DRAM to
  LLB and partial-output transfers modelled.
* **Gamma** (Gustavson): FiberCache modelled as "always hit"; PE with
  one-element-per-cycle throughput.

As fixed-dataflow designs, none of them pays SparseCore's
general-purpose overheads (instruction issue, host scalar loop,
residual branches) — that gap is the flexibility-vs-performance
trade-off Figure 16 quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.arch.trace import CycleReport, FrozenTrace, Trace

#: Hierarchical (block-skipping) intersection advantage of ExTensor
#: over a flat parallel comparison walk.
EXTENSOR_SKIP_FACTOR = 0.5

#: Per-line pipelined transfer cost (cycles) for accelerator DRAM paths.
ACCEL_LINE_COST = 2.0
_LINE_KEYS = 16  # 64B line / 4B key


class OuterSpaceModel:
    """Outer-product accelerator (HPCA 2018), one PE."""

    name = "outerspace"

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        # The multiply phase produces one scaled partial product per
        # cycle; the merge phase consumes its input streams at one
        # element per cycle.  Partial product matrices round-trip
        # through memory (keys + values out, back in for merging) —
        # the dataflow's defining traffic.
        compute = float(t.eff_elems.sum()) + float(t.flop_pairs.sum())
        key_lines = float(t.eff_elems.sum()) / _LINE_KEYS
        partial_lines = 2.0 * float(t.out_len.sum()) * 12 / 64
        memory = (key_lines + partial_lines) * ACCEL_LINE_COST
        total = compute + memory
        return CycleReport(
            machine=self.name, cache_cycles=memory,
            intersection_cycles=compute, total_cycles=total,
            detail={"dataflow": "outer"},
        )


class ExTensorModel:
    """Inner-product accelerator (MICRO 2019), one PE."""

    name = "extensor"

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        walk = float(t.su_cycles.sum()) * EXTENSOR_SKIP_FACTOR
        flops = float(t.flop_pairs.sum())
        compute = max(walk, flops)
        # DRAM -> LLB transfers for both operands + partial outputs.
        memory = float((t.eff_elems.sum() + t.out_len.sum())) \
            / _LINE_KEYS * ACCEL_LINE_COST
        total = compute + memory
        return CycleReport(
            machine=self.name, cache_cycles=memory,
            intersection_cycles=compute, total_cycles=total,
            detail={"dataflow": "inner"},
        )


class GammaModel:
    """Gustavson accelerator (ASPLOS 2021), one PE."""

    name = "gamma"

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        # The PE has one-element-per-cycle throughput over its input
        # fibers (Section 6.9.2); the FiberCache always hits for keys,
        # but fiber *values* (8B each) still stream through it once and
        # the output streams out.
        compute = float(t.eff_elems.sum()) + float(t.flop_pairs.sum())
        value_lines = float(t.eff_elems.sum()) * 8 / 64
        out_lines = float(t.out_len.sum()) / _LINE_KEYS
        memory = (value_lines + out_lines) * ACCEL_LINE_COST
        total = compute + memory
        return CycleReport(
            machine=self.name, cache_cycles=memory,
            intersection_cycles=compute, total_cycles=total,
            detail={"dataflow": "gustavson", "fibercache": "always-hit"},
        )
