"""Pricing one recorded run under every model a figure needs.

The paper's methodology records each workload **once** and re-costs the
same trace under every machine model (Section 6.1).  These functions
are the single pricing path: the cold (just recorded) and warm (loaded
from the disk cache) pipeline branches both call them on the frozen
trace, so cached metrics are bit-identical by construction.

Every function takes the :class:`~repro.arch.config.MachineConfigs`
bundle it prices under (``None`` = the ``paper`` preset, Table 2); no
model instantiates its own configuration.  The Figure 12/13 SU and
bandwidth sweep variants derive from the *passed* config via
:func:`~repro.arch.config.config_variant`, so pricing a non-default
design point sweeps around *that* point.  :mod:`repro.explore` rows
need none of the figure tables, so a sweep prices each grid point with
one CPU and one SparseCore cost and does not come through here.
"""

from __future__ import annotations

import numpy as np

from repro.accel import (
    FlexMinerModel,
    GpuModel,
    GramerModel,
    TrieJaxModel,
)
from repro.accel.triejax import Unsupported
from repro.arch.config import MachineConfigs, config_variant, default_configs
from repro.arch.cpu import CpuModel
from repro.arch.sparsecore import SparseCoreModel
from repro.gpm import pattern as pat
from repro.gpm.symmetry import redundancy_factor

#: SU counts of Figure 12 and bandwidths of Figure 13.
SU_SWEEP = (1, 2, 4, 8, 16)
BW_SWEEP = (2, 4, 8, 16, 32, 64)

#: Pattern backing each app code (for redundancy factors) and whether
#: the app is vertex-induced (TrieJax support check).
_APP_PATTERNS = {
    "T": (pat.triangle(), False),
    "TS": (pat.triangle(), False),
    "TC": (pat.wedge(), True),
    "TM": (pat.wedge(), True),  # representative component
    "TT": (pat.tailed_triangle(), True),
    "4C": (pat.clique(4), False),
    "4CS": (pat.clique(4), False),
    "5C": (pat.clique(5), False),
    "5CS": (pat.clique(5), False),
}

#: Seed of the TTV vector / TTM matrix operand draws (Figure 15).
OPERAND_SEED = 7


def resolve_configs(configs: MachineConfigs | None) -> MachineConfigs:
    """The machine pair a run prices under (``None`` = ``paper``)."""
    return default_configs() if configs is None else configs


def sweep_cycle_table(trace, sc_config, field_name: str,
                      values) -> dict:
    """``{value: total_cycles}`` re-pricing one trace along one axis.

    Prices the fixed Figure 12 SU sweep and Figure 13 bandwidth sweep
    of every GPM run, each design point derived from ``sc_config`` via
    :func:`~repro.arch.config.config_variant`.  :mod:`repro.explore`
    does not reach it: a sweep builds its own grid points
    (``grid_points``/``config_variant``) and prices each with one
    SparseCore cost.
    """
    return {
        value: SparseCoreModel(config_variant(sc_config, field_name, value))
        .cost(trace).total_cycles
        for value in values
    }


def core_reports(trace, configs: MachineConfigs):
    """CPU report, SparseCore report, and the 1-SU cycle count.

    The pricing shared by every workload family (GPM and tensor paths
    used to build these three models independently).
    """
    cpu = CpuModel(configs.cpu).cost(trace)
    sc = SparseCoreModel(configs.sparsecore).cost(trace)
    one_su = SparseCoreModel(config_variant(configs.sparsecore, "num_sus",
                                            1)).cost(trace)
    return cpu, sc, one_su


def gpm_metrics_from_trace(app: str, graph_key: str, trace, *,
                           count: int, num_vertices: int,
                           lengths: np.ndarray,
                           configs: MachineConfigs | None = None) -> dict:
    """Everything any GPM figure needs from one recorded run."""
    configs = resolve_configs(configs)
    cpu, sc, one_su = core_reports(trace, configs)
    sc_config = configs.sparsecore

    metrics: dict = {
        "app": app,
        "graph": graph_key,
        "count": count,
        "num_ops": trace.num_ops,
        "cpu_cycles": cpu.total_cycles,
        "sc_cycles": sc.total_cycles,
        "sc_cycles_1su": one_su.total_cycles,
        "speedup_vs_cpu": sc.speedup_over(cpu),
        "cpu_breakdown": cpu.breakdown(),
        "sc_breakdown": sc.breakdown(),
        "su_sweep": sweep_cycle_table(trace, sc_config, "num_sus", SU_SWEEP),
        "bw_sweep": sweep_cycle_table(trace, sc_config, "scache_bandwidth",
                                      BW_SWEEP),
        "stream_lengths": np.asarray(lengths, dtype=np.int64),
    }

    pattern_info = _APP_PATTERNS.get(app)
    if pattern_info is not None:
        pattern, vertex_induced = pattern_info
        redundancy = redundancy_factor(pattern)
        # One compute unit per accelerator vs one SU (Section 6.3.1).
        metrics["sc_cycles_1su_1cu"] = one_su.total_cycles
        metrics["flexminer_cycles"] = FlexMinerModel().cost(trace) \
            .total_cycles
        try:
            metrics["triejax_cycles"] = TrieJaxModel(
                num_vertices, redundancy, vertex_induced
            ).cost(trace).total_cycles
        except Unsupported:
            metrics["triejax_cycles"] = None
        metrics["gramer_cycles"] = GramerModel().cost(trace).total_cycles
        metrics["gpu_cycles_no_breaking"] = GpuModel(
            redundancy, symmetry_breaking=False).cost(trace).total_cycles
        metrics["gpu_cycles_breaking"] = GpuModel(
            redundancy, symmetry_breaking=True).cost(trace).total_cycles

    return metrics


def tensor_common_metrics(trace, extra: dict, *,
                          configs: MachineConfigs | None = None) -> dict:
    """CPU/SparseCore pricing shared by SpMSpM and TTV/TTM runs."""
    cpu, sc, one_su = core_reports(trace, resolve_configs(configs))
    return {
        "num_ops": trace.num_ops,
        "cpu_cycles": cpu.total_cycles,
        "sc_cycles": sc.total_cycles,
        "sc_cycles_1su": one_su.total_cycles,
        "speedup_vs_cpu": sc.speedup_over(cpu),
        **extra,
    }


def spmspm_accel_cycles(trace, dataflow: str) -> dict:
    """Figure 16 accelerator baseline priced on this dataflow's trace."""
    from repro.accel import ExTensorModel, GammaModel, OuterSpaceModel

    accel = {"inner": ExTensorModel(), "outer": OuterSpaceModel(),
             "gustavson": GammaModel()}[dataflow]
    return {"accel_name": accel.name,
            "accel_cycles": accel.cost(trace).total_cycles}


def tensor_operands(tensor):
    """The Figure 15 contraction operands, drawn from one rng stream.

    TTV consumes the vector draw and TTM the subsequent matrix draws of
    the *same* ``default_rng(OPERAND_SEED)`` sequence — reproducing the
    original figure runner bit-exactly for both kernels.
    """
    from repro.tensor.matrix import SparseMatrix

    rng = np.random.default_rng(OPERAND_SEED)
    vec = rng.random(tensor.shape[2])
    dense = (rng.random((24, tensor.shape[2])) < 0.25) \
        * rng.uniform(0.1, 1.0, (24, tensor.shape[2]))
    return vec, SparseMatrix.from_dense(dense)


def price_run(spec, dataset_key: str, trace, *, lengths=None,
              meta: dict | None = None,
              configs: MachineConfigs | None = None) -> dict:
    """The family-dispatched metrics dict for one frozen trace."""
    meta = meta or {}
    if spec.family == "gpm":
        return gpm_metrics_from_trace(
            spec.app, dataset_key, trace,
            count=int(meta["count"]),
            num_vertices=int(meta["num_vertices"]),
            lengths=lengths if lengths is not None
            else np.empty(0, dtype=np.int64),
            configs=configs,
        )
    if spec.family == "spmspm":
        return tensor_common_metrics(trace, {
            "matrix": dataset_key, "dataflow": spec.app,
            **spmspm_accel_cycles(trace, spec.app),
        }, configs=configs)
    return tensor_common_metrics(
        trace, {"tensor": dataset_key, "kernel": spec.app},
        configs=configs)


__all__ = [
    "BW_SWEEP", "OPERAND_SEED", "SU_SWEEP", "core_reports",
    "gpm_metrics_from_trace", "price_run", "resolve_configs",
    "spmspm_accel_cycles", "sweep_cycle_table", "tensor_common_metrics",
    "tensor_operands",
]
