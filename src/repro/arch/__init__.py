"""SparseCore microarchitecture: components, cost models, executor.

This package models the architecture of Section 4 of the paper:

* :mod:`repro.arch.config` — the simulated configuration (Table 2) and
  the knobs the cost models read.
* :mod:`repro.arch.simmem` — a flat simulated address space backed by
  numpy arrays (what ``S_READ`` addresses point into).
* :mod:`repro.arch.memory` — the conventional cache hierarchy
  (L1/L2/L3/DRAM) as an LRU reuse model.
* :mod:`repro.arch.smt` — the Stream Mapping Table (Section 4.1).
* :mod:`repro.arch.stream_regs` — stream registers and GFRs (3.2).
* :mod:`repro.arch.scache` — the Stream Cache and scratchpad (4.2/4.3).
* :mod:`repro.arch.trace` — compact operation traces shared by all
  machine models.
* :mod:`repro.arch.cpu` — the baseline CPU cost model (Figure 9).
* :mod:`repro.arch.sparsecore` — the SparseCore cost model (Figure 10),
  including multi-SU and bandwidth scaling (Figures 12/13).
* :mod:`repro.arch.executor` — the functional instruction-level
  executor for stream-ISA programs.
"""

from repro.arch.config import (
    CacheConfig,
    CpuConfig,
    MachineConfigs,
    SparseCoreConfig,
    config_fingerprint,
    config_variant,
    default_configs,
    get_preset,
    sweepable_fields,
)
from repro.arch.simmem import SimMemory
from repro.arch.trace import OpKind, Trace
from repro.arch.cpu import CpuModel
from repro.arch.sparsecore import SparseCoreModel
from repro.arch.executor import StreamExecutor

__all__ = [
    "CacheConfig",
    "CpuConfig",
    "MachineConfigs",
    "SparseCoreConfig",
    "config_fingerprint",
    "config_variant",
    "default_configs",
    "get_preset",
    "sweepable_fields",
    "SimMemory",
    "OpKind",
    "Trace",
    "CpuModel",
    "SparseCoreModel",
    "StreamExecutor",
]
