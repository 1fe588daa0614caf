"""Run cache: round-trips, keys, the default cache, corruption."""

import json

import numpy as np
import pytest

from repro.arch.trace import FrozenTrace
from repro.eval.figures import _metrics
from repro.gpm.apps import run_app
from repro.graph.datasets import load_graph
from repro.perf.cache import (
    CACHE_FORMAT_VERSION,
    RunCache,
    default_run_cache,
    fingerprint,
    reset_default_run_cache,
)
from repro.workloads import run_workload, workload_for_app

SMALL = 0.12


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "runs")


def _gpm_metrics(cache) -> dict:
    return run_workload(workload_for_app("gpm", "T"), "C", SMALL,
                        cache=cache).metrics


def _record_trace() -> FrozenTrace:
    graph = load_graph("citeseer", SMALL)
    return run_app("T", graph).trace.freeze()


class TestFingerprint:
    def test_stable(self):
        params = {"app": "T", "graph": "citeseer", "scale": 0.12}
        assert fingerprint("gpm", params) == fingerprint("gpm", params)

    def test_param_order_irrelevant(self):
        assert fingerprint("gpm", {"a": 1, "b": 2}) \
            == fingerprint("gpm", {"b": 2, "a": 1})

    def test_changes_with_params(self):
        base = fingerprint("gpm", {"app": "T", "seed": 1})
        assert fingerprint("gpm", {"app": "T", "seed": 2}) != base
        assert fingerprint("gpm", {"app": "TS", "seed": 1}) != base
        assert fingerprint("tensor", {"app": "T", "seed": 1}) != base

    def test_changes_with_format_version(self):
        params = {"app": "T"}
        assert fingerprint("gpm", params, version=CACHE_FORMAT_VERSION) \
            != fingerprint("gpm", params, version=CACHE_FORMAT_VERSION + 1)


class TestRoundTrip:
    def test_trace_round_trip(self, cache):
        trace = _record_trace()
        lengths = np.arange(7, dtype=np.int64)
        key = fingerprint("gpm", {"x": 1})
        cache.put(key, trace, meta={"kind": "gpm", "count": 42},
                  lengths=lengths)
        hit = cache.get(key)
        assert hit is not None
        assert hit.meta["count"] == 42
        assert hit.meta["num_ops"] == trace.num_ops
        np.testing.assert_array_equal(hit.lengths, lengths)
        for field in ("kind", "su_cycles", "cpu_steps", "dir_changes",
                      "eff_elems", "out_len", "flop_pairs", "burst",
                      "nested", "cpu_mem", "sc_mem"):
            got, want = getattr(hit.trace, field), getattr(trace, field)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        for field in ("shared_scalar_instrs", "cpu_only_scalar_instrs",
                      "sc_only_scalar_instrs"):
            assert getattr(hit.trace, field) == getattr(trace, field)

    def test_miss_on_unknown_key(self, cache):
        assert cache.get("0" * 24) is None

    def test_miss_on_corrupt_npz(self, cache):
        trace = _record_trace()
        key = fingerprint("gpm", {"x": 2})
        cache.put(key, trace, meta={"kind": "gpm"})
        (cache.root / f"{key}.npz").write_bytes(b"not an npz archive")
        assert cache.get(key) is None

    def test_miss_on_format_version_mismatch(self, cache):
        trace = _record_trace()
        key = fingerprint("gpm", {"x": 3})
        cache.put(key, trace, meta={"kind": "gpm"})
        sidecar = cache.root / f"{key}.json"
        meta = json.loads(sidecar.read_text())
        meta["format_version"] = CACHE_FORMAT_VERSION + 1
        sidecar.write_text(json.dumps(meta))
        assert cache.get(key) is None

    def test_stats_and_clear(self, cache):
        trace = _record_trace()
        for i in range(3):
            cache.put(fingerprint("gpm", {"i": i}), trace,
                      meta={"kind": "gpm"})
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["stream_ops"] == 3 * trace.num_ops
        assert len(cache.entries()) == 3
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0


class TestFormatVersionReporting:
    """``stats``/``fsck`` must break entries down per trace-format
    version so a key-schema bump (v3 -> v4, the recording backend
    leaving the fingerprint) is visible instead of silently reading as
    misses."""

    def _plant(self, cache, version):
        trace = _record_trace()
        key = fingerprint("gpm", {"v": version if version is not None else -1})
        cache.put(key, trace, meta={"kind": "gpm"})
        sidecar = cache.root / f"{key}.json"
        meta = json.loads(sidecar.read_text())
        if version is None:
            meta.pop("format_version", None)
        else:
            meta["format_version"] = version
        sidecar.write_text(json.dumps(meta))
        return key

    def test_stats_histogram(self, cache):
        current = self._plant(cache, CACHE_FORMAT_VERSION)
        self._plant(cache, CACHE_FORMAT_VERSION - 1)
        self._plant(cache, None)
        stats = cache.stats()
        assert stats["format_versions"] == {
            f"v{CACHE_FORMAT_VERSION}": 1,
            f"v{CACHE_FORMAT_VERSION - 1}": 1,
            "unversioned": 1,
        }
        assert stats["stale_entries"] == 2
        assert cache.get(current) is not None

    def test_fsck_reports_and_quarantines_stale(self, cache):
        current = self._plant(cache, CACHE_FORMAT_VERSION)
        self._plant(cache, CACHE_FORMAT_VERSION - 1)
        report = cache.fsck()
        assert report["format_versions"] == {
            f"v{CACHE_FORMAT_VERSION}": 1,
            f"v{CACHE_FORMAT_VERSION - 1}": 1,
        }
        assert report["stale"] == 1
        assert report["quarantined"] == 1
        assert report["ok"] == 1
        # The stale entry is gone; a rescan sees only the current one.
        assert cache.stats()["format_versions"] == {
            f"v{CACHE_FORMAT_VERSION}": 1}
        assert cache.get(current) is not None


class TestDefaultCache:
    def test_env_dir_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        reset_default_run_cache()
        try:
            assert default_run_cache().root == tmp_path / "alt"
        finally:
            reset_default_run_cache()

    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "persist"))
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        reset_default_run_cache()
        try:
            root = default_run_cache().root
            assert root.is_dir()
            assert (tmp_path / "persist") not in (root, *root.parents)
            assert default_run_cache().root == root
        finally:
            reset_default_run_cache()
        assert not root.exists()

    def test_disabled_cache_records_once(self, tmp_path, monkeypatch):
        from repro.workloads import pipeline

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "persist"))
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        reset_default_run_cache()
        try:
            cold = _metrics("T", "C", SMALL)

            def boom(*a, **k):
                raise AssertionError("re-recorded despite a cache hit")

            monkeypatch.setitem(pipeline._RECORDERS, "gpm", boom)
            warm = _metrics("T", "C", SMALL)
            assert _canon(warm) == _canon(cold)
            assert not (tmp_path / "persist").exists()
        finally:
            reset_default_run_cache()

    def test_disabled_cache_serves_engine_workers(self, monkeypatch):
        from repro.perf.engine import RunJob, run_jobs

        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        reset_default_run_cache()
        try:
            jobs = [RunJob("gpm", "T", "C", SMALL),
                    RunJob("gpm", "TC", "C", SMALL)]
            run_jobs(jobs, workers=2, strict=True)
            assert default_run_cache().stats()["entries"] == len(jobs)
        finally:
            reset_default_run_cache()

    def test_disabled_cache_stats_exits_2(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        reset_default_run_cache()
        try:
            assert main(["cache", "stats"]) == 2
            assert "run cache disabled" in capsys.readouterr().out
        finally:
            reset_default_run_cache()


class TestWarmMetricsIdentity:
    def test_gpm_cold_vs_warm_bit_identical(self, cache):
        cold = _gpm_metrics(cache)
        warm = _gpm_metrics(cache)
        assert _canon(cold) == _canon(warm)

    def test_warm_path_actually_hits(self, cache, monkeypatch):
        from repro.workloads import pipeline

        _gpm_metrics(cache)

        def boom(*a, **k):
            raise AssertionError("re-recorded despite a cache hit")

        monkeypatch.setitem(pipeline._RECORDERS, "gpm", boom)
        warm = _gpm_metrics(cache)
        assert warm["count"] > 0

    def test_stale_format_version_re_records(self, cache):
        from repro.workloads import get_workload

        spec = get_workload("triangle")
        cold = run_workload(spec, "C", SMALL, cache=cache)
        assert not cold.cached
        # Age every sidecar to the previous cache format: the pipeline
        # must treat the entries as misses and record again.
        for sidecar in cache.root.glob("*.json"):
            meta = json.loads(sidecar.read_text())
            meta["format_version"] = CACHE_FORMAT_VERSION - 1
            sidecar.write_text(json.dumps(meta))
        stale = run_workload(spec, "C", SMALL, cache=cache)
        assert not stale.cached
        assert _canon(stale.metrics) == _canon(cold.metrics)
        warm = run_workload(spec, "C", SMALL, cache=cache)
        assert warm.cached

    def test_clear_run_cache_clears_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "d"))
        reset_default_run_cache()
        try:
            _metrics("T", "C", SMALL)
            assert default_run_cache().stats()["entries"] == 1
            default_run_cache().clear()
            assert default_run_cache().stats()["entries"] == 0
            _metrics("T", "C", SMALL)  # records again after the clear
            assert default_run_cache().stats()["entries"] == 1
        finally:
            reset_default_run_cache()


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x
