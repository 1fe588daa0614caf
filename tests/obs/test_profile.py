"""End-to-end tests of the profile runner and its CLI surface."""

import json

import pytest

from repro.obs.profile import (
    SMOKE_WORKLOADS,
    ProfileArgs,
    profile_workload,
    workload_names,
)
from repro.obs.schema import validate_chrome_trace
from repro.workloads import REGISTRY


@pytest.fixture(scope="module")
def triangle_profile():
    return profile_workload("triangle", ProfileArgs(scale=0.3))


class TestProfileWorkload:
    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            profile_workload("nope")

    def test_smoke_pair_registered(self):
        assert all(name in REGISTRY for name in SMOKE_WORKLOADS)
        families = {REGISTRY[n].family for n in SMOKE_WORKLOADS}
        assert families == {"gpm", "spmspm"}  # one of each, per CI

    def test_triangle_checks_hold(self, triangle_profile):
        result = triangle_profile
        # check=True already ran attribution.check() + schema validation;
        # re-assert the invariants explicitly.
        attr = result.attribution
        assert attr.attributed_cycles == pytest.approx(
            result.sc_report.total_cycles, rel=1e-9, abs=1e-6)
        assert validate_chrome_trace(result.chrome_trace) > 0

    def test_counters_populated(self, triangle_profile):
        flat = triangle_profile.counters.flat()
        assert flat["machine.ops.intersect"] > 0
        assert flat["su.busy_cycles"] > 0
        assert any(k.startswith("mem.sc.") for k in flat)
        assert flat["model.sc.total_cycles"] == pytest.approx(
            triangle_profile.sc_report.total_cycles)

    def test_spmspm_runs(self):
        result = profile_workload("spmspm")
        assert result.family == "spmspm"
        assert result.counters.get("machine.ops.vinter", 0) \
            + result.counters.get("machine.ops.vmerge", 0) > 0

    def test_json_payload(self, triangle_profile):
        payload = triangle_profile.to_json()
        json.dumps(payload)  # plain JSON types only
        assert payload["schema_version"] == 1
        assert payload["workload"] == "triangle"
        assert set(payload["attribution"]["buckets"]) == {
            "intersect", "merge", "value", "scalar", "memory"}
        assert payload["trace"]["events"] > 0

    def test_render_has_all_tables(self, triangle_profile):
        text = triangle_profile.render()
        assert "profile: triangle" in text
        assert "cycle attribution" in text
        assert "counters" in text

    def test_event_cap_respected(self, triangle_profile):
        # A capped run keeps the uncapped run's first events and counts
        # every other one as dropped.
        full = triangle_profile.tracer
        assert full.dropped == 0 and len(full.events) > 50
        result = profile_workload("triangle",
                                  ProfileArgs(scale=0.3, max_events=50))
        assert result.tracer.events == full.events[:50]
        assert result.tracer.dropped == len(full.events) - 50


class TestCli:
    def test_profile_json(self, capsys):
        from repro.cli import main

        assert main(["profile", "triangle", "--scale", "0.3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "triangle"

    def test_profile_lists_workloads(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out

    def test_profile_unknown(self, capsys):
        from repro.cli import main

        assert main(["profile", "bogus"]) == 2

    def test_profile_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main(["profile", "triangle", "--scale", "0.3",
                     "--trace", str(path)]) == 0
        validate_chrome_trace(json.loads(path.read_text()))

    def test_difftest_json(self, capsys):
        from repro.cli import main

        assert main(["difftest", "--smoke", "--cases", "9",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["total_cases"] == sum(payload["cases"].values())
        assert payload["total_cases"] > 0
