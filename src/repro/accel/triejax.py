"""TrieJax model (ASPLOS 2020): worst-case-optimal-join GPM engine.

Section 6.3.1 attributes TrieJax's enormous deficit to three factors,
all modelled here:

* **No symmetry breaking** — each unique embedding is processed
  |Aut(pattern)| times (6x for triangles, 24x/120x for 4/5-cliques),
  multiplying every per-embedding cost.
* **Table-structured graph access** — extending an embedding locates a
  neighbor list with a binary search (``O(log N)`` probes through the
  trie/LUB unit) instead of the CSR's ``O(1)`` lookup.
* **Ineffective PJR cache** — partial-join-result entries above 1 KB
  (256 vertices) are never cached, so exactly the high-degree vertices
  GPM touches most always miss to memory.

TrieJax supports only edge-induced (join-expressible) patterns; the
vertex-induced workloads TC/TM/TT raise ``Unsupported`` (in Figure 7
the paper likewise omits them).
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.trace import CycleReport, FrozenTrace, Trace
from repro.errors import ReproError

#: PJR-cache entry limit: 1KB = 256 vertex IDs (Section 6.3.1).
PJR_ENTRY_KEYS = 256

#: Cycles per trie probe step (pipelined comparator in the LUB unit).
PROBE_CYCLES = 1.0

#: Amortized DRAM cycles per key for streams the PJR cache cannot hold.
UNCACHED_KEY_CYCLES = 4.0


class Unsupported(ReproError):
    """The accelerator cannot execute this workload."""


class TrieJaxModel:
    """Trace cost model of one TrieJax thread-equivalent."""

    name = "triejax"

    def __init__(self, num_graph_vertices: int, redundancy: int,
                 vertex_induced: bool = False):
        """``redundancy`` is |Aut(pattern)| (no symmetry breaking);
        ``vertex_induced`` workloads are rejected."""
        if vertex_induced:
            raise Unsupported(
                "TrieJax supports only edge-induced (join) patterns")
        self.log_n = max(1.0, math.log2(max(2, num_graph_vertices)))
        self.redundancy = max(1, int(redundancy))

    def cost(self, trace: Trace | FrozenTrace) -> CycleReport:
        t = trace.freeze()
        # Every merge step pays a binary-search-backed probe.
        steps = float(t.cpu_steps.sum())
        compute = steps * PROBE_CYCLES * self.log_n
        # Streams larger than a PJR entry always come from memory.
        elems = t.eff_elems.astype(np.float64)
        big = elems > PJR_ENTRY_KEYS
        cache = float(elems[big].sum()) * UNCACHED_KEY_CYCLES
        # Small streams hit the PJR cache at the modelled S-Cache cost.
        cache += float(t.sc_mem.sum())
        total = (compute + cache) * self.redundancy
        return CycleReport(
            machine=self.name,
            cache_cycles=cache * self.redundancy,
            branch_cycles=0.0,
            intersection_cycles=compute * self.redundancy,
            other_cycles=0.0,
            total_cycles=total,
            detail={"redundancy": self.redundancy,
                    "log_n_probe_factor": self.log_n},
        )
