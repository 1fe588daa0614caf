"""Shared helpers for the benchmark harness.

Each ``bench_figXX`` module regenerates one table/figure of the paper:
it runs the corresponding :mod:`repro.eval` runner under
pytest-benchmark (one round — these are experiments, not microkernels),
asserts the qualitative shape the paper reports, and writes the
rendered rows to ``benchmarks/results/`` so the regenerated tables
survive the run.

Figure runners look each run up in the default run cache
(:func:`repro.perf.cache.default_run_cache`) by its fingerprint, so
figures sharing workloads (7, 8, 9/10, 11, 12, 13, 14) record each
(app, graph) pair once and re-price its stored trace afterwards.  With
``REPRO_RUN_CACHE=0`` nothing persists across processes, but the
session still records each pair only once.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str,
                 rows: list[dict] | None = None) -> pathlib.Path:
    """Persist a rendered experiment table under benchmarks/results/
    (plus a CSV of the raw rows when provided)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if rows:
        from repro.eval.reporting import to_csv

        to_csv(rows, RESULTS_DIR / f"{name}.csv")
    return path


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
