"""Parallel evaluation engine, hardened for partial failure.

Every figure run in the harness is embarrassingly parallel across
(workload, dataset, scale) jobs — each job records (or loads) one trace
and prices it under the current cost models, sharing no state with its
siblings beyond the content-addressed disk cache.  :func:`run_jobs`
fans a job list out over a ``ProcessPoolExecutor``; results come back
keyed by :func:`job_key` so callers get deterministic, order-independent
output, and per-worker :class:`~repro.obs.counters.Counters` snapshots
are merged into the parent **in job-list order** (not completion
order), keeping merged float totals bit-identical to a serial run.

**Fault tolerance.**  A single crashed worker used to raise
``BrokenProcessPool`` and abort the whole suite; now one bad job
degrades one result:

* per-job wall-clock **timeout** (``REPRO_JOB_TIMEOUT``; hung workers
  are killed and the pool rebuilt),
* bounded **retry** with deterministic exponential backoff
  (``REPRO_JOB_RETRIES`` x ``REPRO_RETRY_BACKOFF``),
* automatic **pool rebuild** on ``BrokenProcessPool`` (innocent
  casualties of a crashed sibling are resubmitted),
* per-job **inline fallback**: after pool retries are exhausted the job
  runs serially in the parent (where injected crash/hang faults are
  inert by construction),
* structured :class:`JobResult` / :class:`JobFailure` records via
  :func:`run_jobs_report`; :func:`run_jobs` returns partial results
  and only raises :class:`~repro.errors.ExecutionError` in ``strict``
  mode.

Because retries re-execute a deterministic recording and only the
*successful* attempt's counter snapshot is merged (still in job-list
order), metrics and merged counters stay bit-identical to a fault-free
run — the property ``python -m repro chaos`` asserts in CI.

Serial execution (``workers <= 1``) runs the same job function inline —
the parallel path differs only in process placement, never in results.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ExecutionError, JobCrashError, JobTimeoutError
from repro.obs.counters import Counters
from repro.resilience import faults
from repro.resilience.knobs import env_float, env_int
from repro.resilience.metrics import RES_COUNTERS, merge_resilience

#: Job kinds understood by :func:`_execute_job`.
_KINDS = ("gpm", "spmspm", "tensor")

#: Documented defaults of the retry knobs (see docs/robustness.md).
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05

_ENV_WORKERS = "REPRO_WORKERS"
_ENV_RETRIES = "REPRO_JOB_RETRIES"
_ENV_TIMEOUT = "REPRO_JOB_TIMEOUT"
_ENV_BACKOFF = "REPRO_RETRY_BACKOFF"


def default_workers() -> int:
    """Default engine fan-out (``REPRO_WORKERS``, validated, >= 1)."""
    return env_int(_ENV_WORKERS, 1, minimum=1)


def default_retries() -> int:
    """Pool retries before inline fallback (``REPRO_JOB_RETRIES``)."""
    return env_int(_ENV_RETRIES, DEFAULT_RETRIES, minimum=0)


def default_timeout() -> float | None:
    """Per-job seconds (``REPRO_JOB_TIMEOUT``; 0/unset = no timeout)."""
    seconds = env_float(_ENV_TIMEOUT, 0.0, minimum=0.0)
    return seconds if seconds > 0 else None


def default_backoff() -> float:
    """Base retry backoff seconds (``REPRO_RETRY_BACKOFF``)."""
    return env_float(_ENV_BACKOFF, DEFAULT_BACKOFF, minimum=0.0)


@dataclass(frozen=True)
class RunJob:
    """One unit of parallel work: a workload on a dataset at a scale.

    ``kind`` selects the runner: ``"gpm"`` (``app`` = app code,
    ``dataset`` = graph), ``"spmspm"`` (``app`` = dataflow, ``dataset``
    = matrix), or ``"tensor"`` (``app`` = ``ttv``/``ttm``, ``dataset``
    = CSF tensor).
    """

    kind: str
    app: str
    dataset: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {_KINDS}")


def job_key(job: RunJob) -> str:
    """Stable human-readable identity of one job."""
    if job.kind == "gpm":
        return f"gpm:{job.app}:{job.dataset}:{job.scale}"
    return f"{job.kind}:{job.app}:{job.dataset}"


def figure_suite_jobs(scale: float = 1.0, *, smoke: bool = False) -> list[RunJob]:
    """Every distinct run behind the Section 6 figure suite.

    Generated from the workload registry's figure tags
    (:data:`repro.workloads.FIGURES`) and deduplicated across figures
    (the per-pair heavy trims make the same (workload, dataset) pair
    appear at one effective scale).  ``smoke`` keeps only the small
    representative :data:`repro.workloads.SMOKE_SUITE` (CI prewarm).
    """
    from repro.workloads import figure_suite_runs

    jobs: dict[str, RunJob] = {}
    for spec, dataset, eff_scale in figure_suite_runs(scale, smoke=smoke):
        job = RunJob(spec.family, spec.app, dataset, eff_scale)
        jobs.setdefault(job_key(job), job)
    return list(jobs.values())


@dataclass
class JobFailure:
    """One job that failed even after retries and the inline fallback."""

    key: str
    error: str  # exception class name
    message: str
    attempts: int


@dataclass
class JobResult:
    """Outcome of one job: its metrics plus how hard it had to fight."""

    key: str
    metrics: dict | None
    attempts: int = 1
    inline: bool = False  # finished via the inline serial fallback
    failure: JobFailure | None = None
    #: harness wall-clock of the *successful* attempt (seconds, measured
    #: worker-side around the pipeline run; 0.0 for failed jobs)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class EngineReport:
    """Structured outcome of one :func:`run_jobs_report` call."""

    results: dict[str, dict] = field(default_factory=dict)
    jobs: dict[str, JobResult] = field(default_factory=dict)
    failures: list[JobFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    inline_fallbacks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def slowest_jobs(self, n: int = 8) -> list[dict]:
        """The ``n`` slowest successful jobs, slowest first."""
        done = sorted((j for j in self.jobs.values() if j.ok),
                      key=lambda j: -j.wall_seconds)
        return [{"key": j.key, "wall_seconds": round(j.wall_seconds, 6),
                 "attempts": j.attempts, "inline": j.inline}
                for j in done[:max(0, n)]]


def _execute_job(payload) -> tuple[str, dict, dict | None, dict, float]:
    """Top-level (picklable) worker: run one job, return its metrics.

    ``payload`` is ``(job, cache_root, collect_counters, attempt)`` —
    primitives only, so the same function serves the inline serial path
    and pool workers.  Returns the job key, its metrics, the optional
    workload-counter snapshot, the delta of resilience counters this
    job produced (merged parent-side), and the attempt's wall-clock
    seconds.
    """
    job, cache_root, collect_counters, attempt = payload
    from repro.obs.probe import Probe
    from repro.perf.cache import RunCache
    from repro.workloads import run_workload, workload_for_app

    key = job_key(job)
    res_before = RES_COUNTERS.flat()
    faults.set_attempt(attempt)
    start = time.perf_counter()
    try:
        faults.inject("worker.exec", key)

        cache = RunCache(cache_root)
        probe = Probe(counters=Counters()) if collect_counters else None

        spec = workload_for_app(job.kind, job.app)
        metrics = run_workload(spec, job.dataset, job.scale,
                               cache=cache, probe=probe).metrics
    finally:
        faults.set_attempt(0)
    wall = time.perf_counter() - start
    counters = probe.counters.flat() if collect_counters else None
    res_after = RES_COUNTERS.flat()
    res_delta = {name: value - res_before.get(name, 0)
                 for name, value in res_after.items()
                 if value != res_before.get(name, 0)}
    return key, metrics, counters, res_delta, wall


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if a worker is hung (terminate, not join)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass


def run_jobs_report(jobs, *, workers: int = 1, cache_dir=None,
                    counters: Counters | None = None,
                    timeout: float | None = None,
                    retries: int | None = None,
                    backoff: float | None = None) -> EngineReport:
    """Execute ``jobs`` with retries/timeouts/fallbacks; full report.

    Duplicate jobs (same key) run once.  Every job opens the run cache
    at ``cache_dir`` (default: the root of this process's
    :func:`~repro.perf.cache.default_run_cache`).  ``timeout``/
    ``retries``/``backoff`` default to their env knobs.  When
    ``counters`` is given, the snapshot of each job's *successful*
    attempt is merged into it in job-list order, so totals match a
    serial instrumented run exactly — retries never double-count.  No
    exception from a job escapes this function; failures land in
    ``report.failures``.
    """
    unique: dict[str, RunJob] = {}
    for job in jobs:
        unique.setdefault(job_key(job), job)
    ordered = list(unique.values())
    n = len(ordered)
    report = EngineReport()
    if n == 0:
        return report

    from repro.obs.spans import clock

    led = clock()
    engine_t0 = led.start()
    res_before = RES_COUNTERS.flat() if led.enabled else {}
    if cache_dir is None:
        from repro.perf.cache import default_run_cache

        cache_dir = default_run_cache().root
    cache_root = os.fspath(cache_dir)
    collect = counters is not None
    retries = default_retries() if retries is None else max(0, int(retries))
    timeout = default_timeout() if timeout is None \
        else (float(timeout) if timeout and timeout > 0 else None)
    backoff = default_backoff() if backoff is None else max(0.0, float(backoff))

    def payload_for(i: int, attempt: int):
        return (ordered[i], cache_root, collect, attempt)

    attempts = [0] * n  # failed attempts charged so far, per job
    inline = [False] * n
    outcomes: dict[int, tuple] = {}
    failures: dict[int, JobFailure] = {}

    def count(event: str, n_events: int = 1) -> None:
        RES_COUNTERS.inc(f"resilience.engine.{event}", n_events)

    def note_injected(exc: BaseException) -> None:
        # A worker-raised injected fault loses its worker-side counter
        # delta with the exception; reconstruct it parent-side.
        if isinstance(exc, faults.InjectedFault):
            site = getattr(exc, "site", "worker.exec")
            kind = getattr(exc, "kind", "oserror")
            RES_COUNTERS.inc(
                f"resilience.faults.injected.{site}.{kind}")

    def charge_retry(i: int, exc: BaseException) -> None:
        attempts[i] += 1
        note_injected(exc)
        report.retries += 1
        count("retries")
        led.instant("job.retry", key=job_key(ordered[i]),
                    attempt=attempts[i], error=type(exc).__name__)

    def fail(i: int, exc: BaseException) -> None:
        failure = JobFailure(key=job_key(ordered[i]),
                             error=type(exc).__name__,
                             message=str(exc),
                             attempts=attempts[i] + 1)
        failures[i] = failure
        report.failures.append(failure)
        count("failures")
        led.instant("job.failed", key=failure.key, error=failure.error,
                    attempts=failure.attempts)

    def run_inline(i: int) -> None:
        """One in-parent attempt (crash/hang faults are inert here)."""
        try:
            outcomes[i] = _execute_job(payload_for(i, attempts[i]))
        except Exception as exc:
            note_injected(exc)
            fail(i, exc)

    def go_inline(i: int) -> None:
        inline[i] = True
        report.inline_fallbacks += 1
        count("inline_fallbacks")
        led.instant("job.inline_fallback", key=job_key(ordered[i]),
                    attempt=attempts[i])
        run_inline(i)

    def sleep_backoff(i: int) -> None:
        if backoff and attempts[i]:
            time.sleep(backoff * 2 ** (attempts[i] - 1))

    if workers <= 1 or n == 1:
        # Serial path: same retry budget, everything inline.
        for i in range(n):
            led.instant("job.submit", key=job_key(ordered[i]),
                        attempt=attempts[i], lane="serial")
            while True:
                sleep_backoff(i)
                try:
                    outcomes[i] = _execute_job(payload_for(i, attempts[i]))
                    break
                except Exception as exc:
                    if attempts[i] >= retries:
                        note_injected(exc)
                        fail(i, exc)
                        break
                    charge_retry(i, exc)
    else:
        workers = min(workers, n)
        pending: deque[int] = deque(range(n))
        rebuilds_left = 2 * n + 4  # backstop against pathological plans
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=faults.mark_pool_worker)
        inflight: dict = {}  # future -> (job index, deadline or None)
        try:
            while pending or inflight:
                broken = False
                while pending and len(inflight) < workers:
                    i = pending.popleft()
                    if attempts[i] > retries:
                        go_inline(i)
                        continue
                    sleep_backoff(i)
                    try:
                        fut = pool.submit(_execute_job,
                                          payload_for(i, attempts[i]))
                    except BrokenProcessPool:
                        pending.appendleft(i)
                        broken = True
                        break
                    led.instant("job.submit", key=job_key(ordered[i]),
                                attempt=attempts[i], lane="pool")
                    deadline = (time.monotonic() + timeout
                                if timeout else None)
                    inflight[fut] = (i, deadline)
                if inflight and not broken:
                    done, _ = wait(set(inflight),
                                   timeout=0.05 if timeout else None,
                                   return_when=FIRST_COMPLETED)
                    for fut in done:
                        i, _deadline = inflight.pop(fut)
                        try:
                            outcomes[i] = fut.result()
                        except BrokenProcessPool:
                            broken = True
                            report.crashes += 1
                            count("crashes")
                            led.instant("job.crash",
                                        key=job_key(ordered[i]),
                                        attempt=attempts[i] + 1)
                            charge_retry(i, JobCrashError(
                                f"pool worker died while running "
                                f"{job_key(ordered[i])} "
                                f"(attempt {attempts[i] + 1})"))
                            pending.append(i)
                        except Exception as exc:
                            charge_retry(i, exc)
                            pending.append(i)
                    if timeout:
                        now = time.monotonic()
                        expired = [fut for fut, (i, dl) in inflight.items()
                                   if dl is not None and now >= dl]
                        for fut in expired:
                            i, _dl = inflight.pop(fut)
                            broken = True
                            report.timeouts += 1
                            count("timeouts")
                            led.instant("job.timeout",
                                        key=job_key(ordered[i]),
                                        attempt=attempts[i] + 1,
                                        timeout_s=timeout)
                            charge_retry(i, JobTimeoutError(
                                f"{job_key(ordered[i])} exceeded "
                                f"{timeout:.3g}s "
                                f"(attempt {attempts[i] + 1})"))
                            pending.append(i)
                if broken:
                    # Jobs still in flight are casualties of the kill,
                    # not culprits: requeue without charging an attempt.
                    for _fut, (i, _dl) in inflight.items():
                        pending.append(i)
                    inflight.clear()
                    _kill_pool(pool)
                    rebuilds_left -= 1
                    if rebuilds_left <= 0:
                        while pending:
                            go_inline(pending.popleft())
                        break
                    report.pool_rebuilds += 1
                    count("pool_rebuilds")
                    led.instant("engine.pool_rebuild",
                                rebuilds_left=rebuilds_left)
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=faults.mark_pool_worker)
        finally:
            _kill_pool(pool)

    # Merge in job-list order == serial order, successes only.
    for i in range(n):
        key = job_key(ordered[i])
        if i in failures:
            report.jobs[key] = JobResult(key=key, metrics=None,
                                         attempts=failures[i].attempts,
                                         inline=inline[i],
                                         failure=failures[i])
            continue
        _key, metrics, flat, res_delta, wall = outcomes[i]
        report.results[key] = metrics
        report.jobs[key] = JobResult(key=key, metrics=metrics,
                                     attempts=attempts[i] + 1,
                                     inline=inline[i], wall_seconds=wall)
        led.span_of("job.done", wall, key=key, attempts=attempts[i] + 1,
                    inline=inline[i])
        if res_delta:
            merge_resilience(res_delta)
        if collect and flat:
            snap = Counters()
            for name, value in flat.items():
                snap.add(name, value)
            counters.merge(snap)
    if led.enabled:
        res_after = RES_COUNTERS.flat()
        res_delta = {name: value - res_before.get(name, 0)
                     for name, value in res_after.items()
                     if value != res_before.get(name, 0)}
        led.span("engine.run", engine_t0, jobs=n, workers=workers,
                 retries=report.retries,
                 timeouts=report.timeouts, crashes=report.crashes,
                 pool_rebuilds=report.pool_rebuilds,
                 inline_fallbacks=report.inline_fallbacks,
                 failures=len(report.failures), res=res_delta)
    return report


def run_jobs(jobs, *, workers: int = 1, cache_dir=None,
             counters: Counters | None = None,
             timeout: float | None = None,
             retries: int | None = None,
             backoff: float | None = None,
             strict: bool = False) -> dict[str, dict]:
    """Execute ``jobs``, serially or across ``workers`` processes.

    Returns ``{job_key: metrics}``.  Jobs that fail even after retries
    and the inline fallback are *omitted* from the result (with a
    ``RuntimeWarning``) unless ``strict=True``, which raises
    :class:`~repro.errors.ExecutionError` instead.  See
    :func:`run_jobs_report` for the structured per-job records.
    """
    report = run_jobs_report(jobs, workers=workers, cache_dir=cache_dir,
                             counters=counters, timeout=timeout,
                             retries=retries, backoff=backoff)
    if report.failures:
        summary = "; ".join(f"{f.key}: {f.error}: {f.message}"
                            for f in report.failures[:5])
        if strict:
            raise ExecutionError(
                f"{len(report.failures)} of {len(report.jobs)} job(s) "
                f"failed after retries: {summary}")
        warnings.warn(
            f"run_jobs degraded: {len(report.failures)} of "
            f"{len(report.jobs)} job(s) failed after retries: {summary}",
            RuntimeWarning, stacklevel=2)
    return report.results
