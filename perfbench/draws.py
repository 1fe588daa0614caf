"""Seeded inputs of the three workloads.

Every draw comes from ``random.Random(seed)`` over the figure-suite jobs
at the reference scale, sorted by key first, so one seed gives one
draw.  Draws are stratified so that two seeds give different jobs with
the same count per app (GPM) or kernel (tensor) and the same size
class per stratum; the throughput they measure then depends on the
program, not on which stand-ins a seed happened to pick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import SUITE_SCALE, run_key

#: Sizes the GPM draw: one job per app per this many ``--seconds``
#: (``--seconds 15`` draws 72 jobs, which record in 12-31 s on a
#: 2-core 2.1 GHz x86 VM, depending on its neighbours' load).
GPM_SECONDS_PER_ROUND = 1.875

#: SpMSpM matrix classes by the stand-in's nonzeros per row: per-op
#: cost grows with operand length, so each class is its own stratum.
SPARSE, MEDIUM, DENSE = "sparse", "medium", "dense"

#: Tensor-cold strata: (kernel, matrix classes, jobs drawn).  TTV and
#: TTM have two datasets each and take both.  Inner products take one
#: sparse-class matrix and one full 400x400 sweep (160k ops) of the
#: medium class, so the largest trace, and with it peak memory, is the
#: same for every seed.  Dense-class jobs (nnz/row >= 15) are left out:
#: their inner products record at about half the ops rate of the others
#: and take up to three times as long, so drawing one or not would move
#: a run's throughput between seeds by more than the benchmark's bound.
TENSOR_STRATA = (
    ("inner", (SPARSE,), 1),
    ("inner", (MEDIUM,), 1),
    ("outer", (SPARSE, MEDIUM), 2),
    ("gustavson", (SPARSE, MEDIUM), 2),
    ("ttv", None, 2),
    ("ttm", None, 2),
)

#: Recorded ops from which an inner product counts as a full 400x400
#: sweep (160k pairs; one medium stand-in has a few empty rows).
FULL_INNER_OPS = 159_000

#: Sweep-warm traces: one GPM trace from each sixth of all GPM recorded
#: ops (jobs sorted by size, so the bins of the largest traces are
#: narrow) and one full 400x400 inner-product trace of the medium
#: class, so every seed prices traces of about the same sizes.
SWEEP_GPM_BINS = 6

#: Price-time fields a sweep may vary beyond ``num_sus`` and
#: ``scache_bandwidth``, with candidate values (the default is added).
SWEEP_FIELDS = {
    "implicit_overlap": (1, 4, 8),
    "scalar_cpi": (0.2, 0.8, 1.6),
    "op_issue_cycles": (0.0, 1.0, 4.0, 8.0),
    "nested_translate_cycles": (0.0, 0.5, 2.0, 4.0),
    "flop_cycles_per_pair": (0.5, 2.0, 4.0),
}


@dataclass(frozen=True)
class Job:
    """One figure-suite run: a workload on a dataset at a scale."""

    workload: str
    family: str
    app: str
    dataset: str
    scale: float

    @property
    def key(self) -> str:
        return run_key(self.workload, self.dataset, self.scale)


def suite_jobs() -> list[Job]:
    """Every figure-suite job at the reference scale, sorted by key."""
    from repro.workloads import figure_suite_runs

    jobs = [Job(spec.name, spec.family, spec.app, dataset, scale)
            for spec, dataset, scale in figure_suite_runs(SUITE_SCALE)]
    return sorted(jobs, key=lambda j: j.key)


def matrix_class(dataset: str) -> str:
    """Size class of a matrix stand-in (by nonzeros per row)."""
    from repro.tensor.datasets import resolve_matrix

    per_row = resolve_matrix(dataset).nnz_per_row
    return SPARSE if per_row < 3 else MEDIUM if per_row < 15 else DENSE


def gpm_draw(seed: int, seconds: float) -> list[Job]:
    """A Latin-square draw of GPM jobs sized to ``seconds``.

    Apps and graphs are shuffled; app ``i`` takes graphs ``i .. i+k-1``
    (cyclically), so every app gets ``k`` jobs and every graph appears
    about ``k * apps / graphs`` times.
    """
    jobs = [j for j in suite_jobs() if j.family == "gpm"]
    grid = {(j.app, j.dataset): j for j in jobs}
    apps = sorted({j.app for j in jobs})
    graphs = sorted({j.dataset for j in jobs})
    rng = random.Random(seed)
    rng.shuffle(apps)
    rng.shuffle(graphs)
    k = max(1, min(len(graphs), round(seconds / GPM_SECONDS_PER_ROUND)))
    return [grid[(app, graphs[(i + c) % len(graphs)])]
            for i, app in enumerate(apps) for c in range(k)
            if (app, graphs[(i + c) % len(graphs)]) in grid]


def _full_inner(job: Job, reference: dict) -> bool:
    return job.app == "inner" and matrix_class(job.dataset) == MEDIUM \
        and reference[job.key]["num_ops"] >= FULL_INNER_OPS


def tensor_draw(seed: int, reference: dict) -> list[Job]:
    """One stratified draw per :data:`TENSOR_STRATA` row."""
    jobs = [j for j in suite_jobs() if j.family != "gpm"]
    rng = random.Random(seed)
    draw = []
    for app, classes, count in TENSOR_STRATA:
        pool = [j for j in jobs if j.app == app and (
            classes is None or matrix_class(j.dataset) in classes)
            and (classes != (MEDIUM,) or _full_inner(j, reference))]
        draw.extend(rng.sample(pool, count))
    return draw


def sweep_draw(seed: int, reference: dict) -> tuple[list[Job], list[str]]:
    """The swept traces and the grid (``field=values`` axis strings).

    The grid always varies ``num_sus`` and ``scache_bandwidth`` (so the
    Figure 12/13 oracle has points) plus one more price-time field, each
    over three values that include the ``paper`` default — so the grid
    contains the paper-preset point.
    """
    from repro.arch.config import SparseCoreConfig
    from repro.workloads import BW_SWEEP, SU_SWEEP

    rng = random.Random(seed)
    jobs = suite_jobs()
    gpm = sorted((j for j in jobs if j.family == "gpm"),
                 key=lambda j: (reference[j.key]["num_ops"], j.key))
    total = sum(reference[j.key]["num_ops"] for j in gpm)
    bins: list[list[Job]] = [[] for _ in range(SWEEP_GPM_BINS)]
    done = 0
    for job in gpm:
        bins[min(SWEEP_GPM_BINS - 1,
                 done * SWEEP_GPM_BINS // total)].append(job)
        done += reference[job.key]["num_ops"]
    traces = [rng.choice(b) for b in bins]
    traces.append(rng.choice([j for j in jobs
                              if _full_inner(j, reference)]))

    base = SparseCoreConfig()
    extra = rng.choice(sorted(SWEEP_FIELDS))
    axes = []
    for field, candidates in (
            ("num_sus", [v for v in SU_SWEEP if v != base.num_sus]),
            ("scache_bandwidth",
             [v for v in BW_SWEEP if v != base.scache_bandwidth]),
            (extra, list(SWEEP_FIELDS[extra]))):
        values = sorted([getattr(base, field)] + rng.sample(candidates, 2))
        axes.append(f"{field}=" + ",".join(str(v) for v in values))
    return traces, axes
