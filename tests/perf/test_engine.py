"""Parallel engine: serial/parallel/warm bit-identity, counter merging."""

import numpy as np
import pytest

from repro.obs.counters import Counters
from repro.perf.cache import RunCache
from repro.perf.engine import RunJob, figure_suite_jobs, job_key, run_jobs
from repro.workloads.pricing import _APP_PATTERNS

SMALL = 0.1

#: Every GPM app plus every tensor-side kernel, small enough for CI.
ALL_GPM_JOBS = [RunJob("gpm", app, "C", SMALL) for app in _APP_PATTERNS]
TENSOR_JOBS = [RunJob("spmspm", flow, "CA")
               for flow in ("inner", "outer", "gustavson")] \
    + [RunJob("tensor", k, "Ch") for k in ("ttv", "ttm")]


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


class TestJobs:
    def test_job_key_distinct(self):
        keys = {job_key(j) for j in ALL_GPM_JOBS + TENSOR_JOBS}
        assert len(keys) == len(ALL_GPM_JOBS) + len(TENSOR_JOBS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunJob("bogus", "T", "C")

    def test_suite_covers_all_families(self):
        jobs = figure_suite_jobs(1.0)
        kinds = {j.kind for j in jobs}
        assert kinds == {"gpm", "spmspm", "tensor"}
        assert len(jobs) == len({job_key(j) for j in jobs})

    def test_smoke_suite_small(self):
        assert 3 <= len(figure_suite_jobs(smoke=True)) <= 8

    def test_duplicate_jobs_run_once(self, tmp_path):
        job = RunJob("gpm", "T", "C", SMALL)
        results = run_jobs([job, job, job], workers=1,
                           cache_dir=tmp_path / "c")
        assert len(results) == 1


class TestBitIdentity:
    def test_parallel_equals_serial_all_apps(self, tmp_path):
        jobs = ALL_GPM_JOBS + TENSOR_JOBS
        serial = run_jobs(jobs, workers=1, cache_dir=tmp_path / "s")
        parallel = run_jobs(jobs, workers=2, cache_dir=tmp_path / "p")
        assert _canon(serial) == _canon(parallel)

    def test_warm_equals_cold(self, tmp_path):
        jobs = [RunJob("gpm", "T", "C", SMALL),
                RunJob("spmspm", "gustavson", "CA")]
        cold = run_jobs(jobs, workers=1, cache_dir=tmp_path / "c")
        warm = run_jobs(jobs, workers=1, cache_dir=tmp_path / "c")
        assert _canon(cold) == _canon(warm)
        assert RunCache(tmp_path / "c").stats()["entries"] == len(jobs)


class TestCounterMerge:
    def test_parallel_counters_equal_serial(self, tmp_path):
        jobs = [RunJob("gpm", "T", "C", SMALL),
                RunJob("gpm", "TC", "C", SMALL),
                RunJob("spmspm", "inner", "CA")]
        serial = Counters()
        run_jobs(jobs, workers=1, cache_dir=tmp_path / "s",
                 counters=serial)
        parallel = Counters()
        run_jobs(jobs, workers=2, cache_dir=tmp_path / "p",
                 counters=parallel)
        assert serial.flat() == parallel.flat()
        assert serial.flat()  # probes actually observed something

    def test_cached_runs_record_nothing(self, tmp_path):
        jobs = [RunJob("gpm", "T", "C", SMALL)]
        first = Counters()
        run_jobs(jobs, workers=1, cache_dir=tmp_path / "c",
                 counters=first)
        second = Counters()
        run_jobs(jobs, workers=1, cache_dir=tmp_path / "c",
                 counters=second)
        assert first.flat()
        assert not second.flat()  # warm hit skips the recording machine


class TestJobWallTime:
    def test_wall_seconds_and_slowest_jobs(self, tmp_path):
        from repro.perf.engine import run_jobs_report

        jobs = [RunJob("gpm", "T", "C", SMALL),
                RunJob("spmspm", "gustavson", "CA")]
        report = run_jobs_report(jobs, workers=1,
                                 cache_dir=tmp_path / "c")
        ok = [j for j in report.jobs.values() if j.ok]
        assert len(ok) == 2
        assert all(j.wall_seconds > 0 for j in ok)
        assert all(j.attempts == 1 for j in ok)
        slowest = report.slowest_jobs(5)
        assert len(slowest) == 2
        assert slowest[0]["wall_seconds"] >= slowest[1]["wall_seconds"]
        assert {"key", "wall_seconds", "attempts", "inline"} \
            <= set(slowest[0])

    def test_chaos_json_carries_slowest_jobs(self, tmp_path, capsys):
        import json

        from repro.cli import main

        code = main(["chaos", "--smoke", "--max-jobs", "3",
                     "--timeout", "15", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["ok"]
        assert payload["slowest_jobs"]
        assert payload["slowest_jobs"][0]["wall_seconds"] > 0


class TestCacheCli:
    def test_stats_prewarm_clear(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "cli-cache")
        assert main(["cache", "prewarm", "--smoke", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "prewarmed" in out
        assert main(["cache", "stats", "--dir", root]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", root]) == 0
        assert "cleared" in capsys.readouterr().out
        assert RunCache(root).stats()["entries"] == 0

    def test_stats_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        root = str(tmp_path / "cli-cache")
        assert main(["cache", "prewarm", "--smoke", "--dir", root]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", root, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert "bytes" in stats and "entry_list" not in stats
        assert main(["cache", "stats", "--dir", root, "--json",
                     "--verbose"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert len(stats["entry_list"]) == stats["entries"]
        assert main(["cache", "fsck", "--dir", root, "--json"]) == 0
        fsck = json.loads(capsys.readouterr().out)
        assert fsck["quarantined"] == 0

    def test_profile_jobs_flag(self, capsys):
        from repro.cli import main

        assert main(["profile", "triangle", "three-chain",
                     "--scale", "0.2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "triangle" in out and "three-chain" in out
        assert "wall_s" in out
        assert "slowest profiles" in out

    def test_profile_multi_json_slowest(self, capsys):
        import json

        from repro.cli import main

        assert main(["profile", "triangle", "three-chain",
                     "--scale", "0.2", "--jobs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {p["workload"] for p in payload["profiles"]} == \
            {"triangle", "three-chain"}
        slowest = payload["slowest_jobs"]
        assert len(slowest) == 2
        assert slowest[0]["wall_seconds"] >= slowest[1]["wall_seconds"]
