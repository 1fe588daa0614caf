"""The design-space sweep runner.

One sweep prices a set of workloads at every point of a configuration
grid.  The run pipeline's split between *recording* (config-free,
cached) and *pricing* (config-dependent, cheap) is what makes this
tractable.  Phase 1 records, through the parallel engine, only the
workloads whose trace the content-addressed cache lacks.  Phase 2
reads each workload's trace **once** and prices every grid point from
that one in-memory :class:`~repro.arch.trace.FrozenTrace`, each under
its own :class:`~repro.arch.config.MachineConfigs`.  A row keeps only
the CPU and SparseCore cycles and their ratio, so a point is one
:class:`~repro.arch.cpu.CpuModel` and one
:class:`~repro.arch.sparsecore.SparseCoreModel` cost, not the full
figure pricing of :func:`~repro.workloads.price_run`.  The CPU model
memoises its column sums on the trace (each further point is O(1)) and
the SparseCore model its segment reduction per
:func:`~repro.arch.sparsecore.segment_key` (each further point is one
vector pass over the segments); points are priced grouped by that key,
so each distinct key is reduced once whatever the axis order.  An
N-point sweep therefore costs at most one recording, one cache read,
one reduction per distinct segment key and N pairs of model costs per
workload.

Outputs per workload: the priced grid (cycles, speedup, modelled area
from :func:`~repro.arch.area.sparsecore_area_mm2`), the Pareto front
(area vs. cycles, both minimized), and per-axis sensitivity (marginal
mean cycles per axis value).  With the run ledger enabled the sweep
leaves ``explore.point`` spans and one ``explore.sweep`` span carrying
the cache totals, surfaced by ``python -m repro obs report``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.arch.area import sparsecore_area_mm2
from repro.arch.config import get_preset
from repro.arch.cpu import CpuModel
from repro.arch.sparsecore import SparseCoreModel, segment_key
from repro.errors import ConfigError
from repro.explore.axes import GridPoint, grid_points, parse_axes
from repro.explore.pareto import pareto_flags
from repro.workloads import get_workload


@dataclass
class WorkloadSweep:
    """One workload's priced grid plus its derived summaries."""

    workload: str
    dataset: str
    scale: float
    #: one row per grid point: axis values, fingerprint, cycles, area
    rows: list[dict] = field(default_factory=list)
    #: non-dominated rows (area vs. cycles), area-ascending
    pareto: list[dict] = field(default_factory=list)
    #: per-axis marginal summaries
    sensitivity: dict = field(default_factory=dict)


@dataclass
class SweepReport:
    """Everything one ``repro explore`` invocation produced."""

    preset: str
    axes: list[dict] = field(default_factory=list)
    n_points: int = 0
    workloads: list[WorkloadSweep] = field(default_factory=list)
    #: trace-cache accounting over the whole sweep
    cache: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "preset": self.preset,
            "axes": self.axes,
            "n_points": self.n_points,
            "workloads": [{
                "workload": w.workload,
                "dataset": w.dataset,
                "scale": w.scale,
                "rows": w.rows,
                "pareto": w.pareto,
                "sensitivity": w.sensitivity,
            } for w in self.workloads],
            "cache": self.cache,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
        }

    def render(self) -> str:
        from repro.eval.reporting import render

        lines = [f"design-space sweep: preset {self.preset!r}, "
                 f"{self.n_points} point(s) x "
                 f"{len(self.workloads)} workload(s), "
                 f"wall {self.wall_seconds:.2f}s"]
        cache = self.cache
        if cache.get("lookups"):
            lines.append(
                f"trace cache: {cache['lookups']} lookup(s), "
                f"{cache['hits']} hit(s), {cache['misses']} recording(s) "
                f"(hit rate {cache['hit_rate']:.1%})")
        for sweep in self.workloads:
            axis_fields = [a["field"] for a in self.axes]
            lines.append("")
            lines.append(render(
                [{**{f: dict(r["values"]).get(f) for f in axis_fields},
                  "area_mm2": f"{r['area_mm2']:.4f}",
                  "sc_cycles": f"{r['sc_cycles']:.6g}",
                  "speedup": f"{r['speedup_vs_cpu']:.2f}x",
                  "pareto": "*" if r["pareto"] else ""}
                 for r in sweep.rows],
                f"{sweep.workload} @ {sweep.dataset} "
                f"(scale {sweep.scale})"))
            for axis_field, sens in sweep.sensitivity.items():
                lines.append(
                    f"  sensitivity {axis_field}: best {sens['best_value']} "
                    f"worst {sens['worst_value']} "
                    f"(max/min cycles {sens['max_over_min']:.3f})")
        for failure in self.failures:
            lines.append(f"FAILED {failure['key']}: {failure['error']}: "
                         f"{failure['message']}")
        return "\n".join(lines)


def _sensitivity(rows: list[dict], axis_fields) -> dict:
    """Marginal mean cycles per axis value (others averaged out)."""
    out: dict = {}
    for axis_field in axis_fields:
        by_value: dict = {}
        for row in rows:
            value = dict(row["values"]).get(axis_field)
            by_value.setdefault(value, []).append(row["sc_cycles"])
        marginal = {value: sum(cycles) / len(cycles)
                    for value, cycles in by_value.items()}
        if not marginal:
            continue
        best = min(marginal, key=marginal.get)
        worst = max(marginal, key=marginal.get)
        out[axis_field] = {
            "cycles_by_value": {str(k): v for k, v in marginal.items()},
            "best_value": best,
            "worst_value": worst,
            "max_over_min": (marginal[worst] / marginal[best]
                             if marginal[best] else float("inf")),
        }
    return out


def _failure(key: str, exc: Exception) -> dict:
    return {"key": key, "error": type(exc).__name__,
            "message": str(exc), "attempts": 1}


def run_sweep(workloads, axes, *, preset: str = "paper",
              datasets: dict | None = None, scale: float = 1.0,
              workers: int = 1, cache_dir=None) -> SweepReport:
    """Price ``workloads`` at every grid point of ``axes``.

    ``axes`` is a sequence of :class:`~repro.explore.axes.Axis` or
    ``field=values`` strings; ``datasets`` optionally maps workload
    name to dataset name (default: each spec's default dataset).
    Phase 1 records the workloads whose trace is missing from the
    trace cache at ``cache_dir`` (default:
    :func:`~repro.perf.cache.default_run_cache`) through
    :func:`repro.perf.engine.run_jobs_report` over ``workers``
    processes.  Phase 2 reads each trace once and prices every grid
    point from it in this process, grouped by segment key; rows keep
    point order.  Pricing is deterministic, so a point whose pricing
    raises is reported once, never retried; a workload whose trace can
    be neither read nor recorded skips its points.
    """
    from repro.obs.spans import clock
    from repro.perf.cache import RunCache, default_run_cache
    from repro.perf.engine import RunJob, job_key, run_jobs_report
    from repro.workloads import run_fingerprint, run_workload

    axes = parse_axes([a for a in axes if isinstance(a, str)]) \
        if all(isinstance(a, str) for a in axes) else tuple(axes)
    if not axes:
        raise ConfigError("a sweep needs at least one --axis")
    base = get_preset(preset)
    points: list[GridPoint] = grid_points(axes, base)
    # Per-point facts shared by every workload's row, in pricing order:
    # grouped by segment key (a stable sort), so each trace reduces its
    # segments once per key however many keys the memo can hold.
    facts = sorted(((point, point.fingerprint(),
                     sparsecore_area_mm2(point.config.sparsecore))
                    for point in points),
                   key=lambda fact: segment_key(fact[0].config.sparsecore))
    axis_fields = [a.field for a in axes]

    specs = []
    for name in workloads:
        spec = get_workload(name)
        dspec = spec.resolve_dataset((datasets or {}).get(spec.name))
        eff_scale = scale if spec.dataset_kind == "graph" else 1.0
        specs.append((spec, dspec,
                      RunJob(spec.family, spec.app, dspec.key, eff_scale)))

    led = clock()
    sweep_t0 = led.start()
    start = time.perf_counter()
    report = SweepReport(
        preset=preset,
        axes=[{"field": a.field, "values": list(a.values)} for a in axes],
        n_points=len(points),
    )

    cache = RunCache(cache_dir) if cache_dir is not None \
        else default_run_cache()
    # Phase 1 — record, through the engine, only what the cache lacks
    # (the trace cache key is config-free, so one recording serves
    # every point).
    missing = {job_key(job): job for spec, dspec, job in specs
               if run_fingerprint(spec, dspec, job.scale) not in cache}
    recorded = run_jobs_report(list(missing.values()), workers=workers,
                               cache_dir=cache.root)
    report.failures.extend(asdict(f) for f in recorded.failures)
    unrecorded = {failure.key for failure in recorded.failures}
    misses = len(missing) - len(unrecorded)

    # Phase 2 — for each trace, price its points in this process.
    for spec, dspec, job in specs:
        key = job_key(job)
        sweep = WorkloadSweep(workload=spec.name, dataset=dspec.key,
                              scale=job.scale)
        report.workloads.append(sweep)
        if key in unrecorded:
            continue
        try:
            run = run_workload(spec, dspec.key, job.scale, cache=cache,
                               price=False)
        except Exception as exc:
            report.failures.append(_failure(key, exc))
            continue
        misses += not run.cached
        rows = {}
        for point, fp, area in facts:
            t0 = time.perf_counter()
            try:
                # The row's three columns, formed as price_run forms them.
                cpu = CpuModel(point.config.cpu).cost(run.trace)
                sc = SparseCoreModel(point.config.sparsecore).cost(run.trace)
            except Exception as exc:
                report.failures.append(
                    _failure(f"{key} [{point.label}]", exc))
                continue
            wall = time.perf_counter() - t0
            rows[point.index] = {
                "point": point.index,
                "values": [list(v) for v in point.values],
                "config_fingerprint": fp,
                "area_mm2": area,
                "sc_cycles": sc.total_cycles,
                "cpu_cycles": cpu.total_cycles,
                "speedup_vs_cpu": sc.speedup_over(cpu),
                "wall_seconds": round(wall, 6),
            }
            led.span_of("explore.point", wall, workload=spec.name,
                        dataset=dspec.key, point=point.index,
                        axis=point.label, cfg=fp)
        sweep.rows = [rows[index] for index in sorted(rows)]

    for sweep in report.workloads:
        flags = pareto_flags(sweep.rows, "area_mm2", "sc_cycles")
        for row, flag in zip(sweep.rows, flags):
            row["pareto"] = flag
        sweep.pareto = sorted(
            (r for r in sweep.rows if r["pareto"]),
            key=lambda r: (r["area_mm2"], r["sc_cycles"]))
        sweep.sensitivity = _sensitivity(sweep.rows, axis_fields)

    lookups = len(specs) * (len(points) + 1)
    report.cache = {
        "lookups": lookups,
        "hits": lookups - misses,
        "misses": misses,
        "hit_rate": round((lookups - misses) / lookups, 4) if lookups
        else None,
        "root": str(cache.root),
    }
    report.wall_seconds = time.perf_counter() - start
    led.span("explore.sweep", sweep_t0, preset=preset,
             axes=",".join(axis_fields),
             workloads=len(specs), points=len(points),
             priced=sum(len(w.rows) for w in report.workloads),
             lookups=lookups, hits=lookups - misses, misses=misses,
             failures=len(report.failures))
    return report


__all__ = ["SweepReport", "WorkloadSweep", "run_sweep"]
