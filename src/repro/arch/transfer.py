"""Stream data-movement charging, shared by the recording context and
the instruction-level executor.

For every stream load the question is: what does moving this stream
cost (a) the baseline CPU through L1/L2/L3, and (b) SparseCore through
scratchpad -> S-Cache -> L2/L3 with prefetching?  Both hierarchies are
driven by the *same* access sequence, so reuse behaviour (the paper's
"higher degree means the stream can be reused more often") shows up on
both sides consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import SparseCoreConfig
from repro.arch.memory import CacheHierarchy
from repro.arch.scratchpad import Scratchpad
from repro.obs.counters import NULL_COUNTERS

#: Memory-level parallelism of SparseCore's value-gather path: the
#: VA_gen -> load queue -> vBuf pipeline (Section 4.5) keeps several
#: gathers in flight, hiding part — not all — of the demand latency the
#: CPU's scalar loop exposes.
VALUE_GATHER_MLP = 2.0


@dataclass
class StreamLoadCost:
    """Stall cycles charged to each machine for one stream load."""

    cpu_cycles: float
    sc_cycles: float
    scratchpad_hit: bool


class TransferModel:
    """Paired CPU/SparseCore data-movement model."""

    def __init__(self, config: SparseCoreConfig | None = None,
                 counters=NULL_COUNTERS):
        self.config = config or SparseCoreConfig()
        self.counters = counters
        cache = self.config.cache
        self.cpu_hierarchy = CacheHierarchy(cache, use_l1=True,
                                            counters=counters,
                                            name="mem.cpu")
        self.sc_hierarchy = CacheHierarchy(cache, use_l1=False,
                                           counters=counters,
                                           name="mem.sc")
        self.scratchpad = Scratchpad(self.config.scratchpad_bytes,
                                     counters=counters)

    def load_stream(self, key: tuple, nbytes: int,
                    priority: int = 0) -> StreamLoadCost:
        """Charge one stream load on both machines.

        ``key`` is a stable granule identity (e.g. ``("edges", v)``);
        ``priority`` is the compiler-assigned scratchpad priority.
        """
        cpu = self.cpu_hierarchy.access(key, nbytes)
        hit = self.scratchpad.access(key, nbytes, priority)
        sc = 0.0 if hit else self.sc_hierarchy.access_pipelined(key, nbytes)
        if self.counters.enabled:
            self.counters.inc("transfer.stream_loads")
            self.counters.add("transfer.stream_bytes", nbytes)
        return StreamLoadCost(cpu, sc, hit)

    def load_values(self, key: tuple, nbytes: int) -> StreamLoadCost:
        """Value fetches go through the *normal* hierarchy on both
        machines (Section 4.3: values are not cached in the S-Cache).
        On SparseCore the VA_gen -> load queue -> vBuf path keeps many
        gathers in flight (Section 4.5), so latency is overlapped and
        only per-line transfer cost is charged; the CPU's scalar loop
        exposes the demand latency."""
        cpu = self.cpu_hierarchy.access(key, nbytes)
        demand = self.sc_hierarchy.access(key, nbytes)
        sc = demand / VALUE_GATHER_MLP
        if self.counters.enabled:
            self.counters.inc("transfer.value_loads")
            self.counters.add("transfer.value_bytes", nbytes)
        return StreamLoadCost(cpu, sc, False)

    def reset(self) -> None:
        self.cpu_hierarchy.reset()
        self.sc_hierarchy.reset()
        self.scratchpad.reset()
