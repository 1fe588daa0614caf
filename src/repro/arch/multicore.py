"""Multi-core scaling (Table 2 configures six cores).

The paper's accelerator comparisons are one-compute-unit-vs-one-SU, but
the simulated system has six cores; GPM and the row-major tensor
dataflows parallelize naturally over the outermost loop (vertices /
rows).  This model estimates multi-core performance by partitioning a
recorded trace's operations into per-core shards — contiguous burst
groups, since a burst (one outer-loop iteration's work) never splits
across cores — and taking the slowest shard plus a serial fraction.

It is intentionally simple (no coherence traffic: the paper notes the
input data is read-only and the S-Cache does not participate in
coherence, Section 5.1), but it captures the two first-order effects:
load imbalance from skewed degree distributions and Amdahl losses from
the serial scalar portion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.arch.sparsecore import SparseCoreModel
from repro.arch.trace import COLUMNS, FrozenTrace, Trace
from repro.obs.counters import NULL_COUNTERS


@dataclass
class MultiCoreReport:
    cores: int
    single_core_cycles: float
    parallel_cycles: float
    speedup: float
    imbalance: float  # slowest shard / average shard


class MultiCoreModel:
    """Shard a trace across cores and price each shard."""

    def __init__(self, num_cores: int = 6,
                 base_model: SparseCoreModel | None = None):
        self.num_cores = max(1, int(num_cores))
        self.base_model = base_model or SparseCoreModel()

    def _shard_slices(self, t: FrozenTrace) -> list[np.ndarray]:
        """Round-robin whole burst-groups of ops into core shards."""
        if t.num_ops == 0:
            return [np.empty(0, dtype=np.int64)
                    for _ in range(self.num_cores)]
        group = t.burst.copy()
        singles = group == -1
        if singles.any():
            idx = np.cumsum(singles) - 1
            group[singles] = -2 - idx[singles]  # each singleton alone
        change = np.flatnonzero(
            np.concatenate(([True], group[1:] != group[:-1])))
        ends = np.concatenate((change[1:], [group.size]))
        shards: list[list[int]] = [[] for _ in range(self.num_cores)]
        for i, (s, e) in enumerate(zip(change.tolist(), ends.tolist())):
            shards[i % self.num_cores].extend(range(s, e))
        return [np.asarray(s, dtype=np.int64) for s in shards]

    def _subtrace(self, t: FrozenTrace, idx: np.ndarray,
                  share: float) -> FrozenTrace:
        return replace(
            t,
            **{name: getattr(t, name)[idx] for name, _ in COLUMNS},
            shared_scalar_instrs=int(t.shared_scalar_instrs * share),
            cpu_only_scalar_instrs=int(t.cpu_only_scalar_instrs * share),
            sc_only_scalar_instrs=int(t.sc_only_scalar_instrs * share),
        )

    def cost(self, trace: Trace | FrozenTrace,
             counters=NULL_COUNTERS) -> MultiCoreReport:
        t = trace.freeze()
        single = self.base_model.cost(t).total_cycles
        if self.num_cores == 1 or t.num_ops == 0:
            return MultiCoreReport(self.num_cores, single, single, 1.0, 1.0)
        shard_idx = self._shard_slices(t)
        share = 1.0 / self.num_cores
        shard_cycles = [
            self.base_model.cost(self._subtrace(t, idx, share)).total_cycles
            for idx in shard_idx
        ]
        slowest = max(shard_cycles)
        average = sum(shard_cycles) / len(shard_cycles)
        if counters.enabled:
            counters.add("multicore.cores", self.num_cores)
            for core, cycles in enumerate(shard_cycles):
                counters.add(f"multicore.shard.{core}.cycles", cycles)
                counters.add(f"multicore.shard.{core}.ops",
                             int(shard_idx[core].size))
            counters.add("multicore.slowest_shard_cycles", slowest)
        return MultiCoreReport(
            cores=self.num_cores,
            single_core_cycles=single,
            parallel_cycles=slowest,
            speedup=single / slowest if slowest else 1.0,
            imbalance=slowest / average if average else 1.0,
        )
