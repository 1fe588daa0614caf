"""The program's layers as the benchmark sees them.

:data:`ENTRIES` names every wrapped entry point, the layer it belongs
to, the metric prefix it folds into, and the workloads that must
exercise it (a traced run in which such an entry point records no call
fails).  Entry points that are alternatives — the two recording
backends — share a ``group``; the requirement holds for the group.

:data:`PER_LAYER` declares every per-layer metric with the end-to-end
metric it should move and the workloads on which it should move (no
change is expected elsewhere).  ``BENCHMARK.json`` lists the same
names, units and directions; the ``moves``/``on`` columns live here
because that file's schema has no place for them.  :func:`fold` turns
one traced run into exactly these metrics.

A layer whose self time is a share ``f`` of a workload's traced pass
can raise that workload's throughput by at most ``1 / (1 - f)``.

Set-up and pass are traced as separate phases.  Dataset generation
(``graph``, ``tensor``) and cache writes are reported over both, since
the first is set-up work and the second happens in set-up on
``sweep-warm`` and in the pass on the cold workloads; every other layer
is reported over the timed pass only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

GPM, TENSOR, SWEEP = "gpm-cold", "tensor-cold", "sweep-warm"
COLD = (GPM, TENSOR)
ALL = (GPM, TENSOR, SWEEP)


# -- hooks: counts taken where the work happens ------------------------------


def _entry_bytes(cache, key) -> int:
    size = 0
    for suffix in (".npz", ".json"):
        try:
            size += os.stat(cache.root / f"{key}{suffix}").st_size
        except OSError:
            pass
    return size


def _cache_get(extra, args, result):
    cache, key = args[0], args[1]
    extra["get.lookups"] = extra.get("get.lookups", 0) + 1
    seen = extra.setdefault("get.seen", set())
    if key in seen:
        extra["get.repeats"] = extra.get("get.repeats", 0) + 1
    seen.add(key)
    if result is not None:
        extra["get.hits"] = extra.get("get.hits", 0) + 1
        extra["get.bytes"] = extra.get("get.bytes", 0) \
            + _entry_bytes(cache, key)


def _cache_put(extra, args, result):
    if result:
        extra["put.bytes"] = extra.get("put.bytes", 0) \
            + _entry_bytes(args[0], args[1])


def _engine(extra, args, report):
    extra["engine.jobs"] = extra.get("engine.jobs", 0) + len(report.jobs)
    extra["engine.retries"] = extra.get("engine.retries", 0) \
        + report.retries
    extra["engine.failures"] = extra.get("engine.failures", 0) \
        + len(report.failures)


def _freeze(extra, args, trace):
    extra["recorded_ops"] = extra.get("recorded_ops", 0) + trace.num_ops


def _pricing(extra, args, metrics):
    extra["priced"] = extra.get("priced", 0) + 1


def describe_run(args, kwargs) -> dict:
    """What one ``run_workload`` call serves (the span run id table)."""
    workload = args[0] if args else kwargs.get("workload")
    dataset = args[1] if len(args) > 1 else kwargs.get("dataset")
    scale = args[2] if len(args) > 2 else kwargs.get("scale", 1.0)
    config = kwargs.get("config")
    return {"workload": getattr(workload, "name", workload),
            "dataset": dataset, "scale": scale,
            "config": "paper" if config is None else config.fingerprint()}


# -- entry points ------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point (``module:qualified.name``)."""

    target: str
    layer: str
    metric: str
    #: workloads on which the entry point (or its group) must be called
    on: tuple = ()
    group: str = ""
    #: "call", "run" (a run id scope), "context" (a context manager) or
    #: "memo" (an ``lru_cache`` function: lookups and hits are counted)
    kind: str = "call"
    hook: object = None


def _machine(method, on=(), group=""):
    return Entry(f"repro.machine.context:Machine.{method}", "machine",
                 f"machine.{method}", on, group,
                 "context" if method == "burst" else "call")


#: Machine methods with their own per-layer metrics.
MACHINE_METHODS = ("load", "load_values", "reload", "intersect",
                   "intersect_count", "subtract", "subtract_count", "merge",
                   "merge_count", "vinter", "vmerge", "nest_intersect")

#: The remaining public Machine methods (counted in ``machine.*`` only).
MACHINE_OTHER = ("neighbors", "burst", "scalar", "cpu_loop", "sc_loop")

STREAM_OPS = ("intersect", "intersect_count", "subtract", "subtract_count",
              "merge", "merge_count", "vinter", "vmerge")

ACCEL_MODELS = ("flexminer:FlexMinerModel", "triejax:TrieJaxModel",
                "gramer:GramerModel", "gpu:GpuModel",
                "tensor_accels:ExTensorModel",
                "tensor_accels:OuterSpaceModel", "tensor_accels:GammaModel")

ENTRIES: tuple[Entry, ...] = (
    Entry("repro.graph.datasets:load_graph", "graph", "graph", (GPM, SWEEP),
          kind="memo"),
    Entry("repro.tensor.datasets:load_matrix", "tensor", "tensor",
          (TENSOR, SWEEP), kind="memo"),
    Entry("repro.tensor.datasets:load_tensor", "tensor", "tensor",
          (TENSOR,), kind="memo"),
    Entry("repro.gpm.apps:run_app", "gpm", "gpm", (GPM,)),
    Entry("repro.tensorops.taco:CompiledKernel.run", "tensorops",
          "tensorops", (TENSOR,)),
    _machine("load", (GPM,)),
    _machine("load_values", (TENSOR,)),
    _machine("reload", (TENSOR,)),
    _machine("intersect", (GPM,), "machine.intersect"),
    _machine("intersect_count", (GPM,), "machine.intersect"),
    _machine("subtract"),
    _machine("subtract_count"),
    _machine("merge"),
    _machine("merge_count"),
    _machine("vinter", (TENSOR,)),
    _machine("vmerge", (TENSOR,)),
    _machine("nest_intersect", (GPM,)),
    *(_machine(m) for m in MACHINE_OTHER),
    *(Entry(f"repro.streams.ops:{f}", "streams.ops", f"streams.ops.{f}",
            COLD, "streams.ops") for f in STREAM_OPS),
    Entry("repro.streams.runstats:analyze_pair", "streams.runstats",
          "streams.runstats"),
    Entry("repro.arch.transfer:TransferModel.load_stream", "arch.transfer",
          "arch.transfer.load_stream", COLD),
    Entry("repro.arch.transfer:TransferModel.load_values", "arch.transfer",
          "arch.transfer.load_values", (TENSOR,)),
    Entry("repro.arch.trace:Trace.add_op", "record", "record.add", COLD,
          "record.add"),
    Entry("repro.record.columnar:ColumnarTrace.add_op_keys", "record",
          "record.add", COLD, "record.add"),
    Entry("repro.arch.trace:Trace.freeze", "record", "record.freeze", ALL,
          "record.freeze", hook=_freeze),
    Entry("repro.record.columnar:ColumnarTrace.freeze", "record",
          "record.freeze", ALL, "record.freeze", hook=_freeze),
    Entry("repro.perf.cache:RunCache.put", "perf.cache", "perf.cache.put",
          ALL, hook=_cache_put),
    Entry("repro.perf.cache:RunCache.get", "perf.cache", "perf.cache.get",
          ALL, hook=_cache_get),
    Entry("repro.workloads.pipeline:run_workload", "workloads",
          "workloads.run", ALL, kind="run"),
    Entry("repro.workloads.pricing:price_run", "workloads",
          "workloads.pricing", ALL, hook=_pricing),
    Entry("repro.arch.cpu:CpuModel.cost", "arch.cpu", "arch.cpu.cost", ALL),
    Entry("repro.arch.sparsecore:SparseCoreModel.cost", "arch.sparsecore",
          "arch.sparsecore.cost", ALL),
    *(Entry(f"repro.accel.{model}.cost", "accel", "accel.cost", ALL,
            "accel") for model in ACCEL_MODELS),
    Entry("repro.perf.engine:run_jobs_report", "perf.engine", "perf.engine",
          (SWEEP,), hook=_engine),
    Entry("repro.explore.sweep:run_sweep", "explore", "explore", (SWEEP,)),
)

#: Index of the ``run_workload`` entry (its spans are the runs).
RUN_ENTRY = next(i for i, e in enumerate(ENTRIES) if e.kind == "run")


def missing_calls(calls: list[int], workload: str) -> list[str]:
    """Entry-point groups required on ``workload`` that recorded nothing."""
    groups: dict[str, list[int]] = {}
    for fid, entry in enumerate(ENTRIES):
        if workload in entry.on:
            groups.setdefault(entry.group or entry.target, []).append(fid)
    return sorted(name for name, fids in groups.items()
                  if not any(calls[f] for f in fids))


# -- per-layer metrics -------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end metric(s) it should move
    moves: tuple
    #: workloads on which it should move
    on: tuple


def _m(name, unit, better, moves, on):
    moves = (moves,) if isinstance(moves, str) else moves
    return Metric(name, unit, better, moves, on)


def _calls_self(prefix, moves, on):
    return (_m(f"{prefix}.calls", "count", "lower", moves, on),
            _m(f"{prefix}.self_s", "s", "lower", moves, on))


_MACHINE_ON = {"load": (GPM,), "intersect": (GPM,),
               "intersect_count": (GPM,), "nest_intersect": (GPM,),
               "load_values": (TENSOR,), "reload": (TENSOR,),
               "vinter": (TENSOR,), "vmerge": (TENSOR,)}

PER_LAYER: tuple[Metric, ...] = (
    _m("graph.calls", "count", "lower", "setup_s", ALL),
    _m("graph.build_s", "s", "lower", "setup_s", ALL),
    _m("graph.lru_hit_ratio", "fraction", "higher", "setup_s", ALL),
    _m("tensor.calls", "count", "lower", "setup_s", ALL),
    _m("tensor.build_s", "s", "lower", "setup_s", ALL),
    _m("gpm.self_s", "s", "lower", "ops_per_s", (GPM,)),
    _m("tensorops.self_s", "s", "lower", "ops_per_s", (TENSOR,)),
    *_calls_self("machine", "ops_per_s", COLD),
    _m("machine.self_us_per_op", "us/op", "lower", "ops_per_s", COLD),
    *(metric for method in MACHINE_METHODS
      for metric in _calls_self(f"machine.{method}", "ops_per_s",
                                _MACHINE_ON.get(method, COLD))),
    *_calls_self("streams.ops", "ops_per_s", COLD),
    *_calls_self("streams.runstats", "ops_per_s", COLD),
    *_calls_self("arch.transfer.load_stream", "ops_per_s", (GPM,)),
    *_calls_self("arch.transfer.load_values", "ops_per_s", (TENSOR,)),
    *_calls_self("record.add", "ops_per_s", COLD),
    *_calls_self("record.freeze", "ops_per_s", COLD),
    *_calls_self("perf.cache.put", ("ops_per_s", "setup_s"), ALL),
    _m("perf.cache.put.bytes", "B", "lower", ("ops_per_s", "setup_s"), ALL),
    *_calls_self("perf.cache.get", "points_per_s", (SWEEP,)),
    _m("perf.cache.get.bytes", "B", "lower", "points_per_s", (SWEEP,)),
    _m("perf.cache.get.hit_ratio", "fraction", "higher", "points_per_s",
       (SWEEP,)),
    _m("perf.cache.get.repeat_ratio", "fraction", "lower", "points_per_s",
       (SWEEP,)),
    _m("perf.cache.quarantined", "count", "lower", "points_per_s", (SWEEP,)),
    *_calls_self("workloads.run", "ops_per_s", ALL),
    _m("workloads.run_s_p50", "s", "lower", "ops_per_s", ALL),
    _m("workloads.run_s_tail", "s", "lower", "ops_per_s", ALL),
    _m("workloads.run_s_tail_pct", "%", "higher", (), ()),
    _m("workloads.run_s_tail_n", "count", "higher", (), ()),
    _m("workloads.pricing.self_s", "s", "lower", "points_per_s", (SWEEP,)),
    *_calls_self("arch.cpu.cost", "points_per_s", (SWEEP,)),
    *_calls_self("arch.sparsecore.cost", "points_per_s", (SWEEP,)),
    _m("arch.sparsecore.cost_per_point", "count", "lower", "points_per_s",
       (SWEEP,)),
    *_calls_self("accel.cost", "points_per_s", (SWEEP,)),
    _m("perf.engine.jobs", "count", "lower", "points_per_s", (SWEEP,)),
    _m("perf.engine.self_s", "s", "lower", "points_per_s", (SWEEP,)),
    _m("perf.engine.retries", "count", "lower",
       ("points_per_s", "failed_ratio"), (SWEEP,)),
    _m("perf.engine.failures", "count", "lower",
       ("points_per_s", "failed_ratio"), (SWEEP,)),
    _m("explore.self_s", "s", "lower", "points_per_s", (SWEEP,)),
    _m("model.stream_ops", "ops", "higher", (), ()),
    _m("model.cpu_cycles", "cycles", "lower", (), ()),
    _m("model.sc_cycles", "cycles", "lower", (), ()),
    _m("trace.overhead_ratio", "fraction", "lower", (), ()),
    _m("trace.unattributed_s", "s", "lower", (), ()),
    _m("failed_ratio", "fraction", "lower", (), ()),
)


def _tail(durations: list[float]) -> tuple[float, float, float]:
    """``(p50, tail, tail percentile)``: the highest of 50/75/90/95/99/
    99.9 with at least ten runs beyond it (the median when none has)."""
    ordered = sorted(durations)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0.0

    def pct(p):
        return ordered[max(0, math.ceil(p / 100 * n) - 1)]

    tail_pct = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            tail_pct = p
    return pct(50.0), pct(tail_pct), tail_pct


def fold(tracer, *, traced_wall: float, untraced_wall: float,
         model: dict, failed_ratio: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    from tracing import PASS, SETUP

    both = (SETUP, PASS)
    run = tracer.totals((PASS,))
    whole = tracer.totals(both)
    out: dict[str, float] = {}

    def calls_self(name, totals, keys):
        out[f"{name}.calls"] = sum(totals[k][0] for k in keys)
        out[f"{name}.self_s"] = sum(totals[k][1] for k in keys)

    lookups = tracer.counter("graph.lookups", both)
    hits = tracer.counter("graph.hits", both)
    out["graph.calls"] = whole["graph"][0]
    out["graph.build_s"] = whole["graph"][1]
    out["graph.lru_hit_ratio"] = hits / lookups if lookups else 0.0
    out["tensor.calls"] = whole["tensor"][0]
    out["tensor.build_s"] = whole["tensor"][1]
    out["gpm.self_s"] = run["gpm"][1]
    out["tensorops.self_s"] = run["tensorops"][1]
    machine = [k for k in run if k.startswith("machine.")]
    calls_self("machine", run, machine)
    recorded = tracer.counter("recorded_ops")
    out["machine.self_us_per_op"] = (out["machine.self_s"] * 1e6 / recorded
                                     if recorded else 0.0)
    for method in MACHINE_METHODS:
        calls_self(f"machine.{method}", run, [f"machine.{method}"])
    calls_self("streams.ops", run,
               [k for k in run if k.startswith("streams.ops.")])
    calls_self("streams.runstats", run, ["streams.runstats"])
    for name in ("arch.transfer.load_stream", "arch.transfer.load_values",
                 "record.add", "record.freeze"):
        calls_self(name, run, [name])
    calls_self("perf.cache.put", whole, ["perf.cache.put"])
    out["perf.cache.put.bytes"] = tracer.counter("put.bytes", both)
    calls_self("perf.cache.get", run, ["perf.cache.get"])
    reads = tracer.counter("get.lookups")
    out["perf.cache.get.bytes"] = tracer.counter("get.bytes")
    out["perf.cache.get.hit_ratio"] = (tracer.counter("get.hits") / reads
                                       if reads else 0.0)
    out["perf.cache.get.repeat_ratio"] = (tracer.counter("get.repeats")
                                          / reads if reads else 0.0)
    out["perf.cache.quarantined"] = tracer.quarantined
    calls_self("workloads.run", run, ["workloads.run"])
    durations = tracer.run_durations()
    p50, tail, tail_pct = _tail(durations)
    out["workloads.run_s_p50"] = p50
    out["workloads.run_s_tail"] = tail
    out["workloads.run_s_tail_pct"] = tail_pct
    out["workloads.run_s_tail_n"] = len(durations)
    out["workloads.pricing.self_s"] = run["workloads.pricing"][1]
    calls_self("arch.cpu.cost", run, ["arch.cpu.cost"])
    calls_self("arch.sparsecore.cost", run, ["arch.sparsecore.cost"])
    priced = tracer.counter("priced")
    out["arch.sparsecore.cost_per_point"] = (
        out["arch.sparsecore.cost.calls"] / priced if priced else 0.0)
    calls_self("accel.cost", run, ["accel.cost"])
    out["perf.engine.jobs"] = tracer.counter("engine.jobs")
    out["perf.engine.self_s"] = run["perf.engine"][1]
    out["perf.engine.retries"] = tracer.counter("engine.retries")
    out["perf.engine.failures"] = tracer.counter("engine.failures")
    out["explore.self_s"] = run["explore"][1]
    out["model.stream_ops"] = model["stream_ops"]
    out["model.cpu_cycles"] = model["cpu_cycles"]
    out["model.sc_cycles"] = model["sc_cycles"]
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["trace.unattributed_s"] = traced_wall - sum(s for _c, s in
                                                    run.values())
    out["failed_ratio"] = failed_ratio
    names = [m.name for m in PER_LAYER]
    if sorted(out) != sorted(names):
        raise AssertionError(
            f"per-layer metrics drifted from PER_LAYER: "
            f"{sorted(set(out) ^ set(names))}")
    return {name: out[name] for name in names}


def layer_self_seconds(metrics: dict) -> dict[str, float]:
    """Self seconds per layer (the blame table of the gate check)."""
    return {
        "graph": metrics["graph.build_s"],
        "tensor": metrics["tensor.build_s"],
        "gpm": metrics["gpm.self_s"],
        "tensorops": metrics["tensorops.self_s"],
        "machine": metrics["machine.self_s"],
        "streams.ops": metrics["streams.ops.self_s"],
        "streams.runstats": metrics["streams.runstats.self_s"],
        "arch.transfer.load_stream":
            metrics["arch.transfer.load_stream.self_s"],
        "arch.transfer.load_values":
            metrics["arch.transfer.load_values.self_s"],
        "record": metrics["record.add.self_s"]
            + metrics["record.freeze.self_s"],
        "perf.cache.put": metrics["perf.cache.put.self_s"],
        "perf.cache.get": metrics["perf.cache.get.self_s"],
        "workloads.run": metrics["workloads.run.self_s"],
        "workloads.pricing": metrics["workloads.pricing.self_s"],
        "arch.cpu": metrics["arch.cpu.cost.self_s"],
        "arch.sparsecore": metrics["arch.sparsecore.cost.self_s"],
        "accel": metrics["accel.cost.self_s"],
        "perf.engine": metrics["perf.engine.self_s"],
        "explore": metrics["explore.self_s"],
    }
