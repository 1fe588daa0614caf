"""The single run pipeline: spec -> dataset -> record -> price.

:func:`run_workload` is the one execution path every layer shares:

1. **resolve** the dataset name in the spec's registry,
2. **load** the dataset and **record** the workload on a fresh
   recording :class:`~repro.machine.context.Machine` (or read the
   recorded trace from the :class:`~repro.perf.cache.RunCache` — the
   fingerprint is derived from the spec and the dataset's *generator
   parameters*, so rescaling or reseeding a stand-in changes the key),
3. **freeze** the trace (:meth:`~repro.machine.context.Machine.freeze`,
   which also gives a probe its op counters and event timeline),
4. **price** it under the CPU and SparseCore models
   (:mod:`repro.workloads.pricing`) into the family's metrics dict.

The figure runners, the parallel engine's job worker, the profiler,
and the CLI ``run``/``spmspm`` commands all call this function, so
their outputs cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.pricing import OPERAND_SEED, price_run, tensor_operands
from repro.workloads.registry import get_workload
from repro.workloads.spec import WorkloadSpec


def dataset_params(dspec) -> dict:
    """The generator parameters that determine a dataset's content."""
    from repro.graph.datasets import GraphSpec
    from repro.tensor.datasets import MatrixSpec, TensorSpec

    if isinstance(dspec, GraphSpec):
        return {"kind": "graph", "key": dspec.key, "n": dspec.n,
                "mean_degree": dspec.mean_degree,
                "max_degree": dspec.max_degree, "seed": dspec.seed}
    if isinstance(dspec, MatrixSpec):
        return {"kind": "matrix", "key": dspec.key, "n": dspec.n,
                "nnz_per_row": dspec.nnz_per_row,
                "structure": dspec.structure, "seed": dspec.seed}
    if isinstance(dspec, TensorSpec):
        return {"kind": "tensor", "key": dspec.key,
                "shape": list(dspec.shape), "density": dspec.density,
                "seed": dspec.seed, "operand_seed": OPERAND_SEED}
    raise TypeError(f"unknown dataset spec type {type(dspec).__name__}")


def run_fingerprint(spec: WorkloadSpec, dspec, scale: float = 1.0) -> str:
    """Disk-cache fingerprint of one run, derived from the spec.

    The single cache-key construction for every family: workload
    identity (family + app selector), the dataset's generator
    parameters, and the effective scale.  Versioned by
    :data:`~repro.perf.cache.CACHE_FORMAT_VERSION` via
    :func:`~repro.perf.cache.fingerprint`.
    """
    from repro.perf.cache import fingerprint

    return fingerprint(spec.family, {
        "workload": spec.name,
        "app": spec.app,
        "num_labels": spec.num_labels,
        "dataset": dataset_params(dspec),
        "scale": scale,
    })


@dataclass
class RunResult:
    """One pipeline run: the frozen trace, run facts, and metrics."""

    spec: WorkloadSpec
    dataset: str  # resolved dataset key
    scale: float
    trace: object  # FrozenTrace
    metrics: dict | None
    meta: dict = field(default_factory=dict)
    lengths: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    #: human-readable result summary ({"graph": ..., "count": ...});
    #: empty on cache hits, which execute nothing
    summary: dict = field(default_factory=dict)
    cached: bool = False


def _load_dataset(spec, dspec, scale):
    """Generate one run's dataset (the loaders memoise their results)."""
    if spec.dataset_kind == "graph":
        from repro.graph.datasets import load_graph

        return load_graph(dspec.key, scale, num_labels=spec.num_labels)
    if spec.dataset_kind == "matrix":
        from repro.tensor.datasets import load_matrix

        return load_matrix(dspec.key)
    from repro.tensor.datasets import load_tensor

    return load_tensor(dspec.key)


def _record_gpm(spec, graph, machine):
    from repro.gpm.apps import run_app

    run = run_app(spec.app, graph, machine)
    meta = {"count": run.count, "num_vertices": graph.num_vertices}
    return meta, {"graph": str(graph), "count": run.count}


def _record_spmspm(spec, mat, machine):
    from repro.tensorops.taco import compile_expression

    kernel = compile_expression("C(i,j) = A(i,k) * B(k,j)", spec.app)
    result = kernel.run(mat, mat, machine)
    return {}, {"matrix": str(mat), "C": str(result)}


def _record_tensor(spec, tensor, machine):
    from repro.tensorops.taco import compile_expression

    vec, mat_b = tensor_operands(tensor)
    if spec.app == "ttv":
        result = compile_expression("Z(i,j) = A(i,j,k) * B(k)").run(
            tensor, vec, machine)
    else:
        result = compile_expression("Z(i,j,k) = A(i,j,l) * B(k,l)").run(
            tensor, mat_b, machine)
    return {}, {"tensor": str(tensor), "Z": str(result)}


_RECORDERS = {"gpm": _record_gpm, "spmspm": _record_spmspm,
              "tensor": _record_tensor}


def run_workload(workload: str | WorkloadSpec, dataset: str | None = None,
                 scale: float = 1.0, *, cache=None, probe=None,
                 price: bool = True) -> RunResult:
    """Run one registered workload through the shared pipeline.

    ``cache`` (a :class:`~repro.perf.cache.RunCache`) short-circuits
    the recording: on a hit only the stored trace is re-priced under
    the current models.  ``probe`` observes cold recordings — cached
    runs execute nothing, so they contribute no counters.  With
    ``price=False`` the metrics step is skipped (callers that do their
    own pricing, e.g. the profiler, use the trace directly).  Metrics
    are priced under the ``paper`` machine pair; other design points
    re-price the returned trace with
    :func:`~repro.workloads.pricing.price_run` (``configs=``), or with
    just the models they need, as :mod:`repro.explore` sweeps do —
    recording is config-independent, so the trace cache key holds no
    config.
    """
    from repro.obs.spans import clock
    from repro.resilience.faults import inject

    led = clock()
    t0 = led.start()
    spec = get_workload(workload) if isinstance(workload, str) else workload
    dspec = spec.resolve_dataset(dataset)
    # Chaos-test hook: an active fault plan may raise a transient
    # (injected) OSError here, exercising the engine's retry path.
    inject("dataset.resolve", f"{spec.name}:{dspec.key}")
    scale = scale if spec.dataset_kind == "graph" else 1.0
    led.span("dataset.resolve", t0, workload=spec.name, dataset=dspec.key)

    key = run_fingerprint(spec, dspec, scale) if cache is not None else None
    if cache is not None:
        hit = cache.get(key, ledger_attrs={"workload": spec.name,
                                           "dataset": dspec.key})
        if hit is not None:
            t0 = led.start()
            metrics = price_run(spec, dspec.key, hit.trace,
                                lengths=hit.lengths,
                                meta=hit.meta) if price else None
            led.span("price", t0, workload=spec.name, dataset=dspec.key,
                     fp=key, cached=True)
            return RunResult(spec=spec, dataset=dspec.key, scale=scale,
                             trace=hit.trace, metrics=metrics,
                             meta=dict(hit.meta),
                             lengths=hit.lengths, cached=True)

    t0 = led.start()
    data = _load_dataset(spec, dspec, scale)
    led.span("dataset.load", t0, workload=spec.name, dataset=dspec.key)

    from repro.machine.context import Machine

    machine = Machine(name=f"{spec.name}:{dspec.key}",
                      record_lengths=spec.family == "gpm", probe=probe)
    t0 = led.start()
    meta, summary = _RECORDERS[spec.family](spec, data, machine)
    led.span("record", t0, workload=spec.name, dataset=dspec.key, fp=key)
    t0 = led.start()
    trace = machine.freeze()
    led.span("freeze", t0, workload=spec.name, dataset=dspec.key,
             num_ops=trace.num_ops)
    lengths = np.asarray(machine.length_samples, dtype=np.int64)
    # The frozen trace is all that is priced and stored: drop the
    # machine, its op batches and its access log before either.
    del machine
    if cache is not None:
        cache.put(key, trace, lengths=lengths, meta={
            "kind": spec.family, "workload": spec.name, "app": spec.app,
            "dataset": dspec.key, "scale": scale, **meta,
        })
    t0 = led.start()
    metrics = price_run(spec, dspec.key, trace, lengths=lengths,
                        meta=meta) if price else None
    led.span("price", t0, workload=spec.name, dataset=dspec.key,
             fp=key, cached=False)
    return RunResult(spec=spec, dataset=dspec.key, scale=scale, trace=trace,
                     metrics=metrics, meta=meta,
                     lengths=lengths, summary=summary, cached=False)


__all__ = ["RunResult", "dataset_params", "run_fingerprint", "run_workload"]
