"""Hardened engine: retries, timeouts, crashes, fallbacks, degradation.

Every test asserts the same core contract: whatever the fault plan
does, surviving results are **bit-identical** to a fault-free run and
no exception escapes the engine.  Each run gets a fresh cache
directory, so every job records.
"""

import tempfile

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.perf.engine import (
    figure_suite_jobs,
    job_key,
    run_jobs,
    run_jobs_report,
)
from repro.resilience.faults import FaultPlan, FaultPoint, install, uninstall

SCALE = 0.2


@pytest.fixture(scope="module")
def jobs():
    return figure_suite_jobs(SCALE, smoke=True)[:2]


@pytest.fixture(scope="module")
def baseline(jobs, tmp_path_factory):
    """Fault-free reference results (serial, cold cache)."""
    report = run_jobs_report(jobs, workers=1,
                             cache_dir=tmp_path_factory.mktemp("baseline"))
    assert report.ok and report.retries == 0
    return _canon(report.results)


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def _run_with_plan(jobs, plan, **kw):
    install(plan)
    try:
        with tempfile.TemporaryDirectory() as root:
            return run_jobs_report(jobs, cache_dir=root, **kw)
    finally:
        uninstall()


class TestFaultFree:
    def test_parallel_report_is_clean(self, jobs, baseline, tmp_path):
        report = run_jobs_report(jobs, workers=2, cache_dir=tmp_path)
        assert report.ok
        assert report.retries == 0 and report.crashes == 0
        assert report.pool_rebuilds == 0 and report.inline_fallbacks == 0
        assert _canon(report.results) == baseline
        assert all(r.ok and r.attempts == 1 and not r.inline
                   for r in report.jobs.values())

    def test_empty_job_list(self):
        report = run_jobs_report([], workers=2)
        assert report.ok and report.results == {}


class TestTransientFaults:
    def test_worker_oserror_retried_to_identical_results(self, jobs,
                                                         baseline):
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "oserror", match=job_key(jobs[0]),
                       times=1),))
        report = _run_with_plan(jobs, plan, workers=2)
        assert report.ok
        assert report.retries >= 1
        assert _canon(report.results) == baseline

    def test_serial_path_retries_too(self, jobs, baseline):
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "oserror", times=1),))
        report = _run_with_plan(jobs, plan, workers=1)
        assert report.ok
        assert report.retries == len(jobs)  # one transient hit per job
        assert _canon(report.results) == baseline

    def test_dataset_resolve_fault_is_absorbed(self, jobs, baseline):
        plan = FaultPlan(points=(
            FaultPoint("dataset.resolve", "oserror", times=1),))
        report = _run_with_plan(jobs, plan, workers=1, backoff=0.0)
        assert report.ok
        assert report.retries >= 1
        assert _canon(report.results) == baseline


class TestCrashes:
    def test_crashed_worker_rebuilds_pool(self, jobs, baseline):
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "crash", match=job_key(jobs[0]),
                       times=1),))
        report = _run_with_plan(jobs, plan, workers=2)
        assert report.ok
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1
        assert _canon(report.results) == baseline

    def test_persistent_crasher_falls_back_inline(self, jobs, baseline):
        # Crashes on every pool attempt; inline (parent) execution is
        # immune by construction, so the job still completes.
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "crash", match=job_key(jobs[0]),
                       times=99),))
        report = _run_with_plan(jobs, plan, workers=2, retries=1,
                                backoff=0.0)
        assert report.ok
        assert report.inline_fallbacks >= 1
        assert report.jobs[job_key(jobs[0])].inline
        assert _canon(report.results) == baseline

    def test_hung_worker_times_out(self, jobs, baseline):
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "hang", match=job_key(jobs[0]),
                       times=1, delay=60.0),))
        report = _run_with_plan(jobs, plan, workers=2, timeout=2.0,
                                backoff=0.0)
        assert report.ok
        assert report.timeouts >= 1
        assert _canon(report.results) == baseline


class TestDegradation:
    def test_permanent_failure_yields_partial_results(self, jobs,
                                                      baseline, tmp_path):
        doomed = job_key(jobs[0])
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "oserror", match=doomed,
                       times=999),))
        install(plan)
        try:
            report = run_jobs_report(jobs, workers=1, retries=1,
                                     backoff=0.0, cache_dir=tmp_path)
        finally:
            uninstall()
        assert not report.ok
        assert [f.key for f in report.failures] == [doomed]
        assert report.failures[0].error == "InjectedOSError"
        assert report.failures[0].attempts == 2
        survivors = {k: v for k, v in baseline.items() if k != doomed}
        assert _canon(report.results) == survivors
        assert not report.jobs[doomed].ok

    def test_run_jobs_warns_instead_of_raising(self, jobs, tmp_path):
        doomed = job_key(jobs[0])
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "oserror", match=doomed,
                       times=999),))
        install(plan)
        try:
            with pytest.warns(RuntimeWarning, match="run_jobs degraded"):
                results = run_jobs(jobs, workers=1, retries=0,
                                   backoff=0.0, cache_dir=tmp_path)
        finally:
            uninstall()
        assert doomed not in results
        assert len(results) == len(jobs) - 1

    def test_run_jobs_strict_raises(self, jobs, tmp_path):
        plan = FaultPlan(points=(
            FaultPoint("worker.exec", "oserror", times=999),))
        install(plan)
        try:
            with pytest.raises(ExecutionError, match="failed after"):
                run_jobs(jobs, workers=1, retries=0, backoff=0.0,
                         cache_dir=tmp_path, strict=True)
        finally:
            uninstall()
