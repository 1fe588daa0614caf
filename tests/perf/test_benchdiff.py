"""Bench-diff comparator tests: the CI regression gate's own contract.

Exit codes are the product: 0 on self-compare, 1 on an injected 2x
wall-clock regression, 2 when a gated key vanished — each asserted
through both the library API and the ``python -m repro bench diff``
command line.
"""

import copy
import json

import pytest

from repro.perf.benchdiff import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_SCHEMA,
    BenchSchemaError,
    classify,
    detect_kind,
    diff_files,
    diff_reports,
    flatten,
)

WALLCLOCK = {
    "schema_version": 3,
    "mode": "full",
    "machine": {"cpu_count": 4},
    "timings_s": {"cold_serial": 10.0, "cold_parallel": 4.0,
                  "warm_serial": 1.0},
    "throughput": {"runs_per_s_cold": 1.9, "runs_per_s_warm": 19.0},
    "speedups": {"warm_over_cold_serial": 10.0,
                 "parallel_over_cold_serial": 2.5},
    "ledger": {"cold_serial_ledger_s": 10.1, "events": 40,
               "bit_identical": True},
}

PROFILE = {
    "schema_version": 1,
    "mode": "full",
    "workloads": {
        "triangle": {"wall_seconds": 0.5, "speedup_vs_cpu": 12.0,
                     "sc_cycles": 1000.0},
    },
}


class TestClassify:
    def test_wallclock_paths(self):
        assert classify("wallclock", "timings_s.cold_serial") == "time"
        assert classify("wallclock",
                        "ledger.cold_serial_ledger_s") == "time"
        assert classify("wallclock",
                        "speedups.warm_over_cold_serial") == "ratio"
        assert classify("wallclock",
                        "throughput.runs_per_s_cold") == "ratio"
        assert classify("wallclock", "machine.cpu_count") == "info"
        assert classify("wallclock", "ledger.events") == "info"

    def test_profile_paths(self):
        assert classify("profile",
                        "workloads.triangle.wall_seconds") == "time"
        assert classify("profile",
                        "workloads.triangle.speedup_vs_cpu") == "ratio"
        assert classify("profile",
                        "workloads.triangle.sc_cycles") == "info"

    def test_detect_kind(self):
        assert detect_kind(WALLCLOCK) == "wallclock"
        assert detect_kind(PROFILE) == "profile"
        with pytest.raises(BenchSchemaError):
            detect_kind({"something": "else"})

    def test_flatten(self):
        flat = flatten(WALLCLOCK)
        assert flat["timings_s.cold_serial"] == 10.0
        assert flat["ledger.events"] == 40.0
        # booleans are not numeric leaves
        assert "ledger.bit_identical" not in flat


class TestExitCodes:
    def test_self_compare_is_clean(self):
        diff = diff_reports(WALLCLOCK, copy.deepcopy(WALLCLOCK))
        assert diff.ok
        assert diff.exit_code == EXIT_OK
        assert diff.regressions == []

    def test_2x_wallclock_regression_gates(self):
        new = copy.deepcopy(WALLCLOCK)
        new["timings_s"]["cold_serial"] *= 2.0
        diff = diff_reports(WALLCLOCK, new)
        assert diff.exit_code == EXIT_REGRESSION
        assert [d.path for d in diff.regressions] == \
            ["timings_s.cold_serial"]
        assert diff.regressions[0].change == pytest.approx(1.0)

    def test_ratio_collapse_gates(self):
        new = copy.deepcopy(WALLCLOCK)
        new["speedups"]["warm_over_cold_serial"] = 2.0  # was 10x
        diff = diff_reports(WALLCLOCK, new)
        assert diff.exit_code == EXIT_REGRESSION

    def test_within_tolerance_passes(self):
        new = copy.deepcopy(WALLCLOCK)
        new["timings_s"]["cold_serial"] *= 1.2  # under 25% tolerance
        assert diff_reports(WALLCLOCK, new).exit_code == EXIT_OK

    def test_missing_gated_key_is_schema_failure(self):
        new = copy.deepcopy(WALLCLOCK)
        del new["timings_s"]["warm_serial"]
        diff = diff_reports(WALLCLOCK, new)
        assert diff.exit_code == EXIT_SCHEMA
        assert "timings_s.warm_serial" in diff.missing

    def test_new_keys_are_fine(self):
        new = copy.deepcopy(WALLCLOCK)
        new["timings_s"]["brand_new_phase"] = 1.0
        assert diff_reports(WALLCLOCK, new).exit_code == EXIT_OK

    def test_mismatched_kinds_raise(self):
        with pytest.raises(BenchSchemaError):
            diff_reports(WALLCLOCK, PROFILE)

    def test_improvement_is_reported_not_gated(self):
        new = copy.deepcopy(WALLCLOCK)
        new["timings_s"]["cold_serial"] = 1.0  # 10x faster
        diff = diff_reports(WALLCLOCK, new)
        assert diff.exit_code == EXIT_OK
        assert any(d.status == "improved" for d in diff.deltas)


class TestCrossMode:
    def test_ratio_checks_skipped_across_modes(self):
        new = copy.deepcopy(WALLCLOCK)
        new["mode"] = "smoke"
        # smoke's warm ratio would "regress" hard, but must be skipped
        new["speedups"]["warm_over_cold_serial"] = 1.5
        new["timings_s"] = {k: v / 10 for k, v
                            in new["timings_s"].items()}
        diff = diff_reports(WALLCLOCK, new)
        assert not diff.same_mode
        assert diff.exit_code == EXIT_OK
        assert "speedups.warm_over_cold_serial" \
            in diff.skipped_ratio_keys

    def test_time_regression_still_gates_across_modes(self):
        new = copy.deepcopy(WALLCLOCK)
        new["mode"] = "smoke"
        new["timings_s"]["cold_serial"] = 100.0
        assert diff_reports(WALLCLOCK, new).exit_code == EXIT_REGRESSION


class TestProfileKind:
    def test_profile_drift_is_informational(self):
        new = copy.deepcopy(PROFILE)
        new["workloads"]["triangle"]["sc_cycles"] = 2000.0
        diff = diff_reports(PROFILE, new)
        assert diff.exit_code == EXIT_OK
        drift = [d for d in diff.deltas if d.status == "drift"]
        assert [d.path for d in drift] == \
            ["workloads.triangle.sc_cycles"]

    def test_profile_wall_regression_gates(self):
        new = copy.deepcopy(PROFILE)
        new["workloads"]["triangle"]["wall_seconds"] = 5.0
        assert diff_reports(PROFILE, new).exit_code == EXIT_REGRESSION


class TestFilesAndCli:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_diff_files(self, tmp_path):
        old = self._write(tmp_path, "old.json", WALLCLOCK)
        new_report = copy.deepcopy(WALLCLOCK)
        new_report["timings_s"]["cold_serial"] *= 2.0
        new = self._write(tmp_path, "new.json", new_report)
        assert diff_files(old, old).exit_code == EXIT_OK
        assert diff_files(old, new).exit_code == EXIT_REGRESSION
        # a generous tolerance absorbs the doubling
        assert diff_files(old, new, tolerance=1.5).exit_code == EXIT_OK

    def test_unreadable_file_raises_schema_error(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            diff_files(tmp_path / "nope.json", tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchSchemaError):
            diff_files(bad, bad)

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        old = self._write(tmp_path, "old.json", WALLCLOCK)
        regressed = copy.deepcopy(WALLCLOCK)
        regressed["timings_s"]["cold_serial"] *= 2.0
        new = self._write(tmp_path, "new.json", regressed)

        assert main(["bench", "diff", old, old]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: OK" in out

        assert main(["bench", "diff", old, new]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSION" in out

        assert main(["bench", "diff", old,
                     str(tmp_path / "missing.json")]) == EXIT_SCHEMA

    def test_cli_json_output(self, tmp_path, capsys):
        from repro.cli import main

        old = self._write(tmp_path, "old.json", WALLCLOCK)
        assert main(["bench", "diff", old, old, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["kind"] == "wallclock"
        assert payload["regressions"] == []
