"""Performance layer: parallel run engine + persistent trace cache.

:mod:`repro.perf.cache` stores recorded traces on disk (content-
addressed by workload + dataset generator parameters) so warm runs only
re-price traces; :mod:`repro.perf.engine` fans independent (app,
dataset, scale) jobs out over worker processes and merges their
observability counters back deterministically.
"""

from repro.perf.cache import (
    CACHE_FORMAT_VERSION,
    CachedRun,
    RunCache,
    cache_enabled,
    default_cache_dir,
    default_run_cache,
    fingerprint,
    reset_default_run_cache,
)
from repro.perf.engine import (
    EngineReport,
    JobFailure,
    JobResult,
    RunJob,
    figure_suite_jobs,
    job_key,
    run_jobs,
    run_jobs_report,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CachedRun",
    "EngineReport",
    "JobFailure",
    "JobResult",
    "RunCache",
    "RunJob",
    "cache_enabled",
    "default_cache_dir",
    "default_run_cache",
    "figure_suite_jobs",
    "fingerprint",
    "job_key",
    "reset_default_run_cache",
    "run_jobs",
    "run_jobs_report",
]
