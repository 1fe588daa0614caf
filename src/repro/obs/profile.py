"""Profiled workload runs: ``python -m repro profile <workload>``.

Runs one workload from the unified registry (:mod:`repro.workloads`)
through the shared pipeline on a
:class:`~repro.machine.context.Machine` carrying a live
:class:`~repro.obs.probe.Probe`, then assembles the full observability
picture:

* the hierarchical counter registry (:mod:`repro.obs.counters`),
* the event trace with Chrome trace-event export
  (:mod:`repro.obs.tracer`, validated by :mod:`repro.obs.schema`),
* the five-bucket cycle attribution (:mod:`repro.obs.attribution`),
  checked against the cost model's total on every run,
* the CPU/SparseCore cycle reports for context.

This module imports the GPM and tensor stacks (via the pipeline), so
it is *not* imported from ``repro.obs.__init__`` — the arch layer
depends on the leaf obs modules only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.obs.attribution import Attribution, attribute
from repro.obs.counters import Counters
from repro.obs.probe import Probe
from repro.obs.schema import to_jsonable, validate_chrome_trace
from repro.obs.tracer import Tracer
from repro.workloads import (
    SMOKE_WORKLOADS,
    dataset_for,
    get_workload,
    run_workload,
    workload_names,
)

#: JSON schema version of ``ProfileResult.to_json``.
PROFILE_SCHEMA_VERSION = 1

#: Tracer lane names written into the Chrome trace metadata.
THREAD_NAMES = {
    0: "stream units",
    1: "memory (fetches / stalls)",
    2: "bursts",
}


@dataclass
class ProfileArgs:
    """Dataset knobs shared by all workloads (CLI flags)."""

    graph: str = "citeseer"
    matrix: str = "laser"
    tensor: str = "Ch"
    scale: float = 1.0
    max_events: int = 200_000


@dataclass
class ProfileResult:
    """Everything one profiled run observed."""

    workload: str
    family: str
    result: object
    counters: Counters
    tracer: Tracer
    attribution: Attribution
    cpu_report: object
    sc_report: object
    chrome_trace: dict = field(default_factory=dict)
    #: harness wall-clock of the recorded run (seconds; the *simulator's*
    #: cost, as opposed to the modelled machine cycles above)
    wall_seconds: float = 0.0

    # -- rendering ---------------------------------------------------------

    def summary_rows(self) -> list[dict]:
        sc, cpu = self.sc_report, self.cpu_report
        return [
            {"metric": "workload", "value": self.workload},
            {"metric": "result", "value": str(self.result)},
            {"metric": "stream ops", "value":
                int(self.attribution.detail.get("num_ops", 0))},
            {"metric": "sparsecore cycles", "value": sc.total_cycles},
            {"metric": "cpu cycles", "value": cpu.total_cycles},
            {"metric": "speedup vs cpu", "value":
                f"{sc.speedup_over(cpu):.2f}x"},
            {"metric": "su occupancy", "value":
                f"{100 * self.attribution.detail.get('su_occupancy', 0):.1f}%"},
            {"metric": "trace events", "value": len(self.tracer.events)},
            {"metric": "trace events dropped", "value": self.tracer.dropped},
            {"metric": "harness wall-clock", "value":
                f"{self.wall_seconds:.3f}s"},
        ]

    def counter_rows(self, top: int = 24) -> list[dict]:
        """The ``top`` largest flat counters (full set in ``--json``)."""
        flat = sorted(self.counters.flat().items(),
                      key=lambda kv: -abs(kv[1]))
        rows = [{"counter": k, "value": v} for k, v in flat[:top]]
        hidden = len(flat) - len(rows)
        if hidden > 0:
            rows.append({"counter": f"... {hidden} more (see --json)",
                         "value": ""})
        return rows

    def render(self, top_counters: int = 24) -> str:
        from repro.eval.reporting import render

        parts = [
            render(self.summary_rows(), f"profile: {self.workload}"),
            render(self.attribution.rows(),
                   "cycle attribution (sparsecore)"),
            render(self.counter_rows(top_counters), "counters"),
        ]
        return "\n\n".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json(self, *, include_trace_events: bool = False) -> dict:
        """Machine-readable profile; the stable ``--json`` payload."""
        data = {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "workload": self.workload,
            "family": self.family,
            "result": self.result,
            "counters": self.counters.flat(),
            "attribution": self.attribution.to_json(),
            "reports": {
                "cpu": {
                    "total_cycles": self.cpu_report.total_cycles,
                    "breakdown": self.cpu_report.breakdown(),
                },
                "sparsecore": {
                    "total_cycles": self.sc_report.total_cycles,
                    "breakdown": self.sc_report.breakdown(),
                },
            },
            "speedup_vs_cpu": self.sc_report.speedup_over(self.cpu_report),
            "wall_seconds": self.wall_seconds,
            "trace": {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
                "schema": "chrome-trace-event",
            },
        }
        if include_trace_events:
            data["trace"]["chrome"] = self.chrome_trace
        return to_jsonable(data)


def profile_workload(name: str, args: ProfileArgs | None = None,
                     *, check: bool = True) -> ProfileResult:
    """Run one registered workload under a probe and assemble its profile.

    The workload is resolved in the unified registry and executed
    through the shared pipeline (no disk cache: a profile always
    records, so the counters observe the full run).  With
    ``check=True`` (the default, and what the CLI and CI use) the
    attribution is asserted to sum to the model total and the exported
    Chrome trace is validated against the documented schema — both
    raise on violation rather than report quietly.
    """
    spec = get_workload(name)
    args = args or ProfileArgs()
    dataset = dataset_for(spec, graph=args.graph, matrix=args.matrix,
                          tensor=args.tensor)
    probe = Probe.collecting(max_events=args.max_events)
    start = time.perf_counter()
    rec = run_workload(spec, dataset, args.scale, cache=None, probe=probe,
                       price=False)
    wall = time.perf_counter() - start

    from repro.arch.cpu import CpuModel
    from repro.arch.sparsecore import SparseCoreModel

    model = SparseCoreModel()
    sc = model.cost(rec.trace, counters=probe.counters)
    cpu = CpuModel().cost(rec.trace)
    attr = attribute(rec.trace, model, workload=name)
    chrome = probe.tracer.to_chrome(process_name=f"sparsecore:{name}",
                                    thread_names=THREAD_NAMES)
    if check:
        attr.check()
        validate_chrome_trace(chrome)
    return ProfileResult(
        workload=name, family=spec.family, result=rec.summary,
        counters=probe.counters, tracer=probe.tracer, attribution=attr,
        cpu_report=cpu, sc_report=sc, chrome_trace=chrome,
        wall_seconds=wall,
    )


def smoke(args: ProfileArgs | None = None) -> list[ProfileResult]:
    """Profile the smoke pair with all checks on; raises on violation."""
    return [profile_workload(name, args, check=True)
            for name in SMOKE_WORKLOADS]


def _profile_to_json(payload) -> dict:
    """Top-level (picklable) worker for :func:`profile_many`."""
    name, args, include_trace_events = payload
    return profile_workload(name, args, check=True).to_json(
        include_trace_events=include_trace_events)


def profile_many(names, args: ProfileArgs | None = None, *,
                 jobs: int = 1,
                 include_trace_events: bool = False) -> list[dict]:
    """Profile several workloads, optionally across worker processes.

    Returns ``to_json`` payloads (full :class:`ProfileResult` objects
    hold tracers and reports that do not cross process boundaries).
    Results come back in ``names`` order regardless of worker count.
    """
    args = args or ProfileArgs()
    payloads = [(name, args, include_trace_events) for name in names]
    if jobs <= 1 or len(payloads) <= 1:
        return [_profile_to_json(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(_profile_to_json, payloads))


def write_chrome_trace(result: ProfileResult, path) -> None:
    """Dump the (already validated) Chrome trace JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(result.chrome_trace, fh, indent=1)


__all__ = [
    "PROFILE_SCHEMA_VERSION", "ProfileArgs", "ProfileResult",
    "SMOKE_WORKLOADS", "THREAD_NAMES", "profile_many", "profile_workload",
    "smoke", "workload_names", "write_chrome_trace",
]
