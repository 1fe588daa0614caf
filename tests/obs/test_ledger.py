"""Run-ledger tests: schema, append safety, aggregation, export.

Covers the contracts ``python -m repro obs report`` is built on:
events round-trip through write/read bit-for-bit, malformed lines are
counted instead of raised, concurrent pool workers never interleave
bytes (one file per process), the p50/p99 aggregation matches numpy on
known durations, and the Perfetto export passes the Chrome trace
schema validator.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.obs.ledger import (
    ENV_DIR,
    LEDGER_SCHEMA_VERSION,
    LedgerSchemaError,
    NULL_LEDGER,
    RunLedger,
    aggregate,
    default_ledger,
    ledger_to_chrome,
    read_ledger,
    reset_default_ledger,
    validate_event,
)
from repro.obs.schema import validate_chrome_trace
from repro.obs.spans import NULL_CLOCK, SpanClock, clock


def _event(**over):
    base = {"v": LEDGER_SCHEMA_VERSION, "ev": "record", "ph": "span",
            "ts": 100.0, "pid": 1, "sid": "1-abc", "dur": 0.5}
    base.update(over)
    return base


class TestSchema:
    def test_valid_span_and_instant(self):
        validate_event(_event())
        instant = _event(ph="instant")
        del instant["dur"]
        validate_event(instant)

    def test_nested_counter_snapshot_allowed(self):
        validate_event(_event(res={"resilience.retries": 2.0}))

    @pytest.mark.parametrize("bad", [
        {"v": 999},                      # wrong schema version
        {"ev": ""},                      # empty event name
        {"ph": "begin"},                 # unknown phase
        {"ts": -1.0},                    # negative timestamp
        {"ts": "now"},                   # non-numeric timestamp
        {"pid": "12"},                   # non-int pid
        {"sid": ""},                     # empty session id
        {"dur": None},                   # span without duration
        {"dur": -0.1},                   # negative duration
        {"attrs": [1, 2]},               # list attribute
        {"res": {"k": "v"}},             # nested non-numeric value
    ])
    def test_invalid_events_rejected(self, bad):
        with pytest.raises(LedgerSchemaError):
            validate_event(_event(**bad))

    def test_non_dict_rejected(self):
        with pytest.raises(LedgerSchemaError):
            validate_event([1, 2, 3])


class TestRoundTrip:
    def test_emit_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.emit("record", "span", dur=0.25, workload="triangle")
        ledger.emit("cache.read", "span", dur=0.01, outcome="hit")
        ledger.emit("job.retry", "instant", key="gpm:T", attempt=1)
        ledger.close()

        scan = read_ledger(tmp_path)
        assert scan.malformed == 0
        assert scan.files == 1
        assert [e["ev"] for e in scan.events] == \
            ["record", "cache.read", "job.retry"]
        rec = scan.events[0]
        assert rec["dur"] == 0.25
        assert rec["workload"] == "triangle"
        assert rec["pid"] == os.getpid()

    def test_malformed_lines_counted_not_raised(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.emit("price", "span", dur=0.1)
        ledger.close()
        junk = tmp_path / "events-999-zzzz.jsonl"
        junk.write_text('{"truncated": \n'
                        'not json at all\n'
                        '{"v": 999, "ev": "x", "ph": "span"}\n')
        scan = read_ledger(tmp_path)
        assert len(scan.events) == 1
        assert scan.malformed == 3
        assert scan.files == 2

    def test_missing_directory_is_empty_scan(self, tmp_path):
        scan = read_ledger(tmp_path / "never-created")
        assert scan.events == [] and scan.files == 0

    def test_write_error_counted_never_raises(self, tmp_path):
        from repro.resilience.metrics import RES_COUNTERS

        target = tmp_path / "file-not-dir"
        target.write_text("occupied")
        before = RES_COUNTERS.flat().get(
            "resilience.ledger.write_errors", 0)
        ledger = RunLedger(target / "sub")  # mkdir will fail
        ledger.emit("record", "span", dur=0.1)
        after = RES_COUNTERS.flat().get(
            "resilience.ledger.write_errors", 0)
        assert after == before + 1


def _pool_emit(args):
    """Top-level so ProcessPoolExecutor can pickle it."""
    root, i = args
    os.environ[ENV_DIR] = root
    reset_default_ledger()
    led = clock()
    for j in range(20):
        led.span_of("record", 0.001 * (j + 1), workload=f"w{i}", seq=j)
    default_ledger().close()
    return os.getpid()


class TestConcurrentAppends:
    def test_multi_process_appends_never_corrupt(self, tmp_path):
        args = [(str(tmp_path), i) for i in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            pids = list(pool.map(_pool_emit, args))
        scan = read_ledger(tmp_path)
        assert scan.malformed == 0
        assert len(scan.events) == 80
        # one file per (process, session): no interleaving possible
        assert scan.files >= len(set(pids))
        assert {e["pid"] for e in scan.events} == set(pids)


class TestDefaultLedger:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        reset_default_ledger()
        assert default_ledger() is NULL_LEDGER
        assert clock() is NULL_CLOCK
        assert clock().start() == 0.0  # no clock read when disabled

    def test_enabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        reset_default_ledger()
        led = default_ledger()
        assert isinstance(led, RunLedger)
        assert clock().enabled
        clock().instant("resilience.knob_warning", knob="X")
        led.close()
        assert len(read_ledger(tmp_path).events) == 1
        monkeypatch.delenv(ENV_DIR)
        reset_default_ledger()

    def test_null_ledger_emit_is_noop(self):
        NULL_LEDGER.emit("record", "span", dur=1.0)  # must not raise
        sc = SpanClock(NULL_LEDGER)
        with sc.measure("record"):
            pass


class TestAggregate:
    def _scan_with_durs(self, tmp_path, durs):
        ledger = RunLedger(tmp_path)
        for d in durs:
            ledger.emit("record", "span", dur=d, workload="triangle")
        ledger.close()
        return read_ledger(tmp_path)

    def test_percentiles_match_numpy(self, tmp_path):
        durs = [0.01 * i for i in range(1, 101)]
        agg = aggregate(self._scan_with_durs(tmp_path, durs))
        stage = agg["stages"]["record"]
        assert stage["count"] == 100
        assert stage["p50_s"] == pytest.approx(
            float(np.percentile(durs, 50)), abs=1e-6)
        assert stage["p99_s"] == pytest.approx(
            float(np.percentile(durs, 99)), abs=1e-6)
        assert stage["max_s"] == pytest.approx(max(durs), abs=1e-6)
        assert stage["total_s"] == pytest.approx(sum(durs), abs=1e-4)

    def test_cache_hit_rate_and_engine_counts(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for outcome in ("hit", "hit", "miss", "quarantined"):
            ledger.emit("cache.read", "span", dur=0.001, outcome=outcome)
        ledger.emit("cache.write", "span", dur=0.01, outcome="ok")
        ledger.emit("job.submit", "instant", key="a", lane="serial")
        ledger.emit("job.retry", "instant", key="a", attempt=1)
        ledger.emit("job.done", "span", dur=1.5, key="a", attempts=2)
        ledger.emit("job.done", "span", dur=0.5, key="b", attempts=1)
        ledger.emit("resilience.knob_warning", "instant",
                    knob="REPRO_WORKERS", message="bad")
        ledger.close()
        agg = aggregate(read_ledger(tmp_path))
        assert agg["cache"]["hit_rate"] == pytest.approx(0.5)
        assert agg["cache"]["quarantined"] == 1
        assert agg["engine"]["retries"] == 1
        assert agg["engine"]["jobs_done"] == 2
        assert agg["slowest_jobs"][0]["key"] == "a"
        assert agg["slowest_jobs"][0]["attempts"] == 2
        assert agg["resilience"]["knob_warnings"] == 1
        assert agg["resilience"]["knobs"] == ["REPRO_WORKERS"]

    def test_empty_scan_aggregates(self, tmp_path):
        agg = aggregate(read_ledger(tmp_path))
        assert agg["events"] == 0
        assert agg["cache"]["hit_rate"] is None
        assert agg["stages"] == {}


class TestChromeExport:
    def test_export_validates_and_orders(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.emit("record", "span", dur=2.0, workload="triangle")
        ledger.emit("job.retry", "instant", key="a")
        ledger.emit("price", "span", dur=0.1, workload="triangle")
        ledger.close()
        trace = ledger_to_chrome(read_ledger(tmp_path))
        validate_chrome_trace(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] in "Xi"]
        assert len(events) == 3
        assert all(e["ts"] >= 0 for e in events)

    def test_empty_ledger_exports_valid_trace(self, tmp_path):
        trace = ledger_to_chrome(read_ledger(tmp_path))
        validate_chrome_trace(trace)


class TestObsCli:
    def _populate(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.emit("record", "span", dur=0.4, workload="triangle")
        ledger.emit("price", "span", dur=0.05, workload="triangle")
        ledger.emit("cache.read", "span", dur=0.001, outcome="miss")
        ledger.emit("job.submit", "instant", key="gpm:T", lane="serial")
        ledger.emit("job.done", "span", dur=0.5, key="gpm:T", attempts=1)
        ledger.close()

    def test_report_text_json_and_smoke_gate(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["obs", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run ledger" in out and "pipeline stages" in out

        assert main(["obs", "report", "--dir", str(tmp_path),
                     "--json"]) == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["events"] == 5
        assert agg["engine"]["jobs_done"] == 1

        assert main(["obs", "report", "--dir", str(tmp_path),
                     "--smoke"]) == 0
        assert "--smoke ok" in capsys.readouterr().out

    def test_smoke_gate_fails_on_empty_ledger(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "report", "--dir",
                     str(tmp_path / "empty"), "--smoke"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_no_dir_is_usage_error(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(ENV_DIR, raising=False)
        assert main(["obs", "report"]) == 2
        assert ENV_DIR in capsys.readouterr().err

    def test_trace_export_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        out_file = tmp_path / "trace.json"
        assert main(["obs", "trace", str(out_file),
                     "--dir", str(tmp_path)]) == 0
        trace = json.loads(out_file.read_text())
        validate_chrome_trace(trace)
        assert "perfetto" in capsys.readouterr().out


class TestKnobWarningEvents:
    def test_knob_warning_lands_in_ledger_and_counter(
            self, tmp_path, monkeypatch):
        from repro.resilience.knobs import env_int, reset_knob_warnings
        from repro.resilience.metrics import RES_COUNTERS, \
            reset_resilience

        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        reset_default_ledger()
        reset_knob_warnings()
        reset_resilience()
        try:
            with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
                assert env_int("REPRO_WORKERS", 1, minimum=1) == 1
            # warn-once: a second read emits nothing new
            assert env_int("REPRO_WORKERS", 1, minimum=1) == 1
            default_ledger().close()
            scan = read_ledger(tmp_path)
            knob_events = [e for e in scan.events
                           if e["ev"] == "resilience.knob_warning"]
            assert len(knob_events) == 1
            assert knob_events[0]["knob"] == "REPRO_WORKERS"
            assert RES_COUNTERS.flat()["resilience.knob_warnings"] == 1
        finally:
            monkeypatch.delenv(ENV_DIR)
            monkeypatch.delenv("REPRO_WORKERS")
            reset_default_ledger()
            reset_knob_warnings()
            reset_resilience()


class TestPipelineSpans:
    def _events(self, led_dir, monkeypatch, run):
        monkeypatch.setenv(ENV_DIR, str(led_dir))
        reset_default_ledger()
        try:
            run()
            default_ledger().close()
        finally:
            monkeypatch.delenv(ENV_DIR)
            reset_default_ledger()
        return [e["ev"] for e in read_ledger(led_dir).events]

    def test_dataset_load_span_on_cold_runs_only(self, tmp_path,
                                                 monkeypatch):
        from repro.perf.cache import RunCache
        from repro.workloads import run_workload

        cache = RunCache(tmp_path / "cache")

        def run():
            run_workload("triangle", "C", 0.12, cache=cache)

        cold = self._events(tmp_path / "cold", monkeypatch, run)
        warm = self._events(tmp_path / "warm", monkeypatch, run)
        assert cold.count("dataset.load") == 1
        assert cold.index("dataset.resolve") < cold.index("dataset.load") \
            < cold.index("record")
        assert "dataset.load" not in warm and "record" not in warm
        assert "dataset.resolve" in warm
