"""RunCache hardening: checksums, quarantine, anomaly accounting.

Satellite coverage for every corruption mode the cache tolerates:
truncated/bit-flipped payloads, unparseable sidecars, checksum
mismatches, stale format versions, orphans, and injected write
failures — each must read as a miss (never an exception), land in
``quarantine/`` where appropriate, and round-trip bit-identically
after re-recording.
"""

import json

import numpy as np
import pytest

from repro.arch.trace import FrozenTrace
from repro.errors import CacheCorruptionError
from repro.gpm.apps import run_app
from repro.graph.datasets import load_graph
from repro.perf.cache import (CACHE_FORMAT_VERSION, QUARANTINE_DIR, RunCache,
                              fingerprint)
from repro.resilience.faults import FaultPlan, FaultPoint, install, uninstall
from repro.resilience.metrics import resilience_snapshot

SMALL = 0.12


@pytest.fixture(scope="module")
def trace() -> FrozenTrace:
    graph = load_graph("citeseer", SMALL)
    return run_app("T", graph).trace.freeze()


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "runs")


def _store(cache, trace, tag="x") -> str:
    key = fingerprint("gpm", {"tag": tag})
    assert cache.put(key, trace, meta={"kind": "gpm", "tag": tag},
                     lengths=np.arange(5, dtype=np.int64))
    return key


def _quarantined_names(cache) -> set:
    qdir = cache.root / QUARANTINE_DIR
    return {p.name for p in qdir.iterdir()} if qdir.is_dir() else set()


def _canon(trace: FrozenTrace) -> dict:
    from dataclasses import asdict

    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in asdict(trace).items()}


class TestChecksum:
    def test_sidecar_records_payload_checksum(self, cache, trace):
        key = _store(cache, trace)
        meta = json.loads((cache.root / f"{key}.json").read_text())
        assert len(meta["payload_sha256"]) == 64

    def test_flipped_byte_is_caught_and_quarantined(self, cache, trace):
        key = _store(cache, trace)
        npz = cache.root / f"{key}.npz"
        raw = bytearray(npz.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        npz.write_bytes(bytes(raw))
        assert cache.get(key) is None
        flat = resilience_snapshot()
        assert flat["resilience.cache.checksum_mismatch"] == 1
        assert f"{key}.npz" in _quarantined_names(cache)
        assert f"{key}.json" in _quarantined_names(cache)
        assert cache.get(key) is None  # quarantined: stays a miss

    def test_truncated_payload_is_quarantined(self, cache, trace):
        key = _store(cache, trace)
        npz = cache.root / f"{key}.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        assert cache.get(key) is None
        assert f"{key}.npz" in _quarantined_names(cache)

    def test_re_record_round_trips_bit_identically(self, cache, trace):
        key = _store(cache, trace)
        (cache.root / f"{key}.npz").write_bytes(b"garbage")
        assert cache.get(key) is None  # quarantined
        key2 = _store(cache, trace)  # same params -> same key
        assert key2 == key
        hit = cache.get(key)
        assert hit is not None
        assert _canon(hit.trace) == _canon(trace)


class TestSidecarDamage:
    def test_unparseable_sidecar_quarantined(self, cache, trace):
        key = _store(cache, trace)
        (cache.root / f"{key}.json").write_text("{broken json")
        assert cache.get(key) is None
        assert f"{key}.json" in _quarantined_names(cache)
        reasons = [p for p in (cache.root / QUARANTINE_DIR).iterdir()
                   if p.suffix == ".reason"]
        assert reasons and "JSON" in reasons[0].read_text()

    def test_orphan_sidecar_quarantined_on_read(self, cache, trace):
        key = _store(cache, trace)
        (cache.root / f"{key}.npz").unlink()
        assert cache.stats()["orphan_sidecars"] == 1
        assert cache.get(key) is None
        assert f"{key}.json" in _quarantined_names(cache)

    def test_stale_format_version_is_a_plain_miss(self, cache, trace):
        key = _store(cache, trace)
        sidecar = cache.root / f"{key}.json"
        meta = json.loads(sidecar.read_text())
        meta["format_version"] = CACHE_FORMAT_VERSION + 1
        sidecar.write_text(json.dumps(meta))
        assert cache.get(key) is None
        # Intact but stale: left in place for fsck, not quarantined.
        assert cache.stats()["stale_entries"] == 1
        assert f"{key}.npz" not in _quarantined_names(cache)


class TestAnomalyAccounting:
    def test_stats_count_every_anomaly(self, cache, trace):
        good = _store(cache, trace, "good")
        bad = _store(cache, trace, "bad")
        (cache.root / f"{bad}.json").write_text("not json {")
        (cache.root / "feedfacefeedfacefeedface.npz").write_bytes(b"stray")
        (cache.root / "half-write.npz.tmp").write_bytes(b"partial")
        stats = cache.stats()
        assert stats["entries"] == 1  # only the intact pair
        assert stats["corrupt_sidecars"] == 1
        assert stats["orphan_payloads"] == 2  # stray + bad's payload
        assert stats["tmp_files"] == 1
        assert [e["tag"] for e in cache.entries()] == ["good"]
        assert cache.get(good) is not None

    def test_fsck_repairs_and_reports(self, cache, trace):
        _store(cache, trace, "ok")
        flipped = _store(cache, trace, "flipped")
        npz = cache.root / f"{flipped}.npz"
        raw = bytearray(npz.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        npz.write_bytes(bytes(raw))
        stale = _store(cache, trace, "stale")
        sidecar = cache.root / f"{stale}.json"
        meta = json.loads(sidecar.read_text())
        meta["format_version"] = CACHE_FORMAT_VERSION - 1
        sidecar.write_text(json.dumps(meta))
        (cache.root / "deadbeefdeadbeefdeadbeef.npz").write_bytes(b"stray")

        report = cache.fsck()
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert report["stale"] == 1
        assert report["orphans"] == 1
        assert report["quarantined"] >= 3
        after = cache.stats()
        assert after["entries"] == 1
        assert after["corrupt_sidecars"] == 0
        assert after["orphan_payloads"] == 0
        assert after["stale_entries"] == 0
        assert after["quarantined"] >= 2
        # A second pass finds nothing left to repair.
        assert cache.fsck()["quarantined"] == 0

    def test_fsck_strict_raises_after_repair(self, cache, trace):
        key = _store(cache, trace)
        (cache.root / f"{key}.npz").write_bytes(b"junk")
        with pytest.raises(CacheCorruptionError):
            cache.fsck(strict=True)
        cache.fsck(strict=True)  # clean cache: no raise

    def test_clear_empties_quarantine_and_tmp(self, cache, trace):
        key = _store(cache, trace)
        (cache.root / f"{key}.npz").write_bytes(b"junk")
        assert cache.get(key) is None  # -> quarantine
        (cache.root / "left.npz.tmp").write_bytes(b"partial")
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["quarantined"] == 0
        assert stats["tmp_files"] == 0
        assert not (cache.root / QUARANTINE_DIR).exists()


class TestPipelineQuarantine:
    """A chaos-corrupted entry written by the run pipeline is caught,
    quarantined, and transparently re-recorded on the next run."""

    def test_corrupt_write_is_rerecorded(self, cache):
        from repro.workloads import get_workload, run_workload
        from repro.workloads.pipeline import run_fingerprint

        spec = get_workload("triangle")
        key = run_fingerprint(spec, spec.resolve_dataset("citeseer"),
                              SMALL)
        install(FaultPlan(points=(
            FaultPoint("cache.write", "corrupt", times=99),)))
        try:
            cold = run_workload(spec, "citeseer", SMALL, cache=cache)
        finally:
            uninstall()
        assert not cold.cached
        assert resilience_snapshot()[
            "resilience.cache.corrupt_writes"] == 1

        # The rotted entry is caught by its checksum, quarantined, and
        # transparently re-recorded; the re-run's metrics match cold.
        rerun = run_workload(spec, "citeseer", SMALL, cache=cache)
        assert not rerun.cached
        assert resilience_snapshot()[
            "resilience.cache.checksum_mismatch"] == 1
        assert f"{key}.npz" in _quarantined_names(cache)
        assert json.dumps(rerun.metrics, sort_keys=True, default=str) \
            == json.dumps(cold.metrics, sort_keys=True, default=str)

        # Now intact: the third run is a warm hit.
        warm = run_workload(spec, "citeseer", SMALL, cache=cache)
        assert warm.cached


class TestInjectedFaults:
    def test_write_oserror_tolerated(self, cache, trace):
        install(FaultPlan(points=(
            FaultPoint("cache.write", "oserror", times=99),)))
        try:
            key = fingerprint("gpm", {"tag": "w"})
            assert cache.put(key, trace, meta={"kind": "gpm"}) is False
        finally:
            uninstall()
        assert resilience_snapshot()["resilience.cache.write_errors"] == 1
        assert cache.get(key) is None

    def test_read_oserror_is_a_counted_miss(self, cache, trace):
        key = _store(cache, trace)
        install(FaultPlan(points=(
            FaultPoint("cache.read", "oserror", times=99),)))
        try:
            assert cache.get(key) is None
        finally:
            uninstall()
        assert resilience_snapshot()["resilience.cache.read_errors"] == 1
        # Transient: nothing quarantined, the entry reads fine now.
        assert _quarantined_names(cache) == set()
        assert cache.get(key) is not None

    def test_corrupt_write_caught_by_checksum_on_read(self, cache, trace):
        install(FaultPlan(points=(
            FaultPoint("cache.write", "corrupt", times=99),)))
        try:
            key = _store(cache, trace)
        finally:
            uninstall()
        flat = resilience_snapshot()
        assert flat["resilience.cache.corrupt_writes"] == 1
        assert cache.get(key) is None
        assert resilience_snapshot()[
            "resilience.cache.checksum_mismatch"] == 1
        assert f"{key}.npz" in _quarantined_names(cache)
        # Fault-free re-record fully recovers the entry.
        assert _store(cache, trace) == key
        hit = cache.get(key)
        assert hit is not None and _canon(hit.trace) == _canon(trace)
