"""Baseline CPU cost model.

Costs a recorded trace as the scalar two-pointer implementation the
paper's CPU baseline (InHouseAutomine / TACO output) executes:

* each merge-path step is a compare + conditional branch + pointer
  increment with a load-to-use dependency (``cycles_per_step``),
* branch direction changes at run boundaries are mispredicted at
  ``mispredict_rate`` and flushed at ``mispredict_penalty`` — the
  dominant CPU cost in Figure 9,
* stream data moves through L1/L2/L3/DRAM (charged at record time by
  the recording context using the shared
  :class:`~repro.arch.memory.CacheHierarchy`),
* value computation (``S_VINTER``/``S_VMERGE`` equivalents) adds one
  FLOP-pair latency per match plus a gather per value pair,
* surrounding scalar work runs at ``scalar_cpi``.

The CPU has no stream instructions, so nested-intersection sub-ops are
costed exactly like explicit-loop ops; the recording context adds the
loop-management scalar work the scalar code needs
(``cpu_only_scalar_instrs``).
"""

from __future__ import annotations


from repro.arch.config import CpuConfig
from repro.arch.trace import CycleReport, FrozenTrace, Trace

#: Scalar instructions the CPU executes per value gather (address
#: computation + load + bookkeeping), on top of the FLOP itself.
VALUE_GATHER_CYCLES = 2.0


def cpu_sums(t: FrozenTrace) -> dict[str, float]:
    """The config-free column sums the CPU model reads, memoised on ``t``.

    Each column is summed once per trace, so every further
    :class:`CpuModel` config prices ``t`` in O(1).
    """
    sums = t._cpu_sums
    if not sums:
        sums.update(steps=float(t.cpu_steps.sum()),
                    flops=float(t.flop_pairs.sum()),
                    dir_changes=float(t.dir_changes.sum()),
                    mem=float(t.cpu_mem.sum()))
    return sums


class CpuModel:
    """Cost model of the baseline out-of-order core."""

    name = "cpu"

    def __init__(self, config: CpuConfig | None = None):
        self.config = config or CpuConfig()

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        c = self.config
        sums = cpu_sums(t)

        steps = sums["steps"]
        intersection = steps * c.cycles_per_step
        # Value work: one FLOP pair per match + gather overhead.
        flops = sums["flops"]
        intersection += flops * (c.flop_cycles_per_pair + VALUE_GATHER_CYCLES)

        branch = sums["dir_changes"] * c.mispredict_rate \
            * c.mispredict_penalty
        # Each op ends with a mispredicted loop-exit branch.
        branch += t.num_ops * c.mispredict_penalty * c.mispredict_rate

        cache = sums["mem"]

        scalar_instrs = t.shared_scalar_instrs + t.cpu_only_scalar_instrs
        other = scalar_instrs * c.scalar_cpi

        total = intersection + branch + cache + other
        return CycleReport(
            machine=self.name,
            cache_cycles=cache,
            branch_cycles=branch,
            intersection_cycles=intersection,
            other_cycles=other,
            total_cycles=total,
            detail={
                "merge_steps": steps,
                "flop_pairs": flops,
                "scalar_instrs": scalar_instrs,
                "num_ops": t.num_ops,
            },
        )
