"""Evaluation harness: one runner per table/figure of the paper.

Each ``figXX_rows``/``tableX_rows`` function regenerates the data
behind one table or figure of the paper's evaluation (Section 6) and
returns a list of row dictionaries; :func:`repro.eval.reporting.render`
prints them as an ASCII table.  ``benchmarks/`` wraps each runner in a
pytest-benchmark target, and EXPERIMENTS.md records paper-vs-measured
values.

Workload scale is controlled per call (``scale=``); the defaults keep
the full harness tractable in pure Python while preserving every trend
the paper reports (see DESIGN.md's substitution notes).  Each figure
looks its runs up in :func:`~repro.perf.cache.default_run_cache` by
run fingerprint and re-prices the stored trace, so every call returns
freshly computed metrics and a run shared by several figures is
recorded once (once per process with ``REPRO_RUN_CACHE=0``).
"""

from repro.eval.reporting import render
from repro.eval import figures, tables

__all__ = ["render", "figures", "tables"]
