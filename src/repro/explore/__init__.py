"""Design-space exploration: grid sweeps over machine configurations.

Declarative axes (:mod:`repro.explore.axes`) expand into a grid of
:class:`~repro.arch.config.MachineConfigs` points; the sweep runner
(:mod:`repro.explore.sweep`) records the workloads the trace cache
lacks through the parallel engine, then prices every point from one
in-memory read of each trace; :mod:`repro.explore.pareto` extracts the
area/cycles Pareto front.  CLI entry point: ``python -m repro
explore``.
"""

from repro.explore.axes import (
    Axis,
    GridPoint,
    grid_points,
    parse_axes,
    parse_axis,
)
from repro.explore.pareto import pareto_flags, pareto_front
from repro.explore.sweep import SweepReport, WorkloadSweep, run_sweep

__all__ = [
    "Axis", "GridPoint", "SweepReport", "WorkloadSweep", "grid_points",
    "pareto_flags", "pareto_front", "parse_axes", "parse_axis",
    "run_sweep",
]
