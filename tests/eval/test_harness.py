"""Tests for the evaluation harness (small scales; benches run full)."""

import numpy as np
import pytest

from repro.eval import figures, render, tables
from repro.eval.reporting import gmean
from repro.perf.cache import default_run_cache

SMALL = 0.12  # tiny stand-ins: harness mechanics, not paper numbers

#: the figure path: one GPM run's metrics from the default run cache
gpm_metrics = figures._metrics


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    default_run_cache().clear()
    yield
    default_run_cache().clear()


class TestRunCache:
    def test_metrics_schema(self):
        m = gpm_metrics("T", "C", SMALL)
        for key in ("count", "cpu_cycles", "sc_cycles", "speedup_vs_cpu",
                    "su_sweep", "bw_sweep", "cpu_breakdown",
                    "flexminer_cycles", "gpu_cycles_breaking"):
            assert key in m

    def test_lookups_return_separate_results(self):
        a = gpm_metrics("T", "C", SMALL)
        b = gpm_metrics("T", "C", SMALL)
        np.testing.assert_equal(a, b)
        assert a is not b
        count, lengths = b["count"], b["stream_lengths"].copy()
        assert lengths.size > 0
        a["count"] += 1
        a["stream_lengths"] += 1
        assert b["count"] == count
        np.testing.assert_array_equal(b["stream_lengths"], lengths)

    def test_triejax_none_for_vertex_induced(self):
        m = gpm_metrics("TC", "C", SMALL)
        assert m["triejax_cycles"] is None
        m = gpm_metrics("T", "C", SMALL)
        assert m["triejax_cycles"] is not None


class TestFigureRunners:
    def test_fig07_schema(self):
        rows = figures.fig07_rows(SMALL, apps=("T",), graphs=("C", "E"))
        assert len(rows) == 2
        assert all(r["vs_flexminer"] > 0 for r in rows)
        summary = figures.fig07_summary(rows)
        assert summary["gmean_vs_triejax"] > 1.0

    def test_fig08_schema(self):
        rows = figures.fig08_rows(SMALL, apps=("T", "TS"), graphs=("C",))
        assert {r["app"] for r in rows} == {"T", "TS"}
        assert all(r["speedup"] > 0 for r in rows)

    def test_fig09_10_fractions(self):
        rows = figures.fig09_rows(SMALL, apps=("TS",), graphs=("C",))
        total = sum(v for k, v in rows[0].items()
                    if k not in ("app", "graph"))
        assert total == pytest.approx(1.0, abs=1e-3)
        rows = figures.fig10_rows(SMALL, apps=("TS",), graphs=("C",))
        assert rows[0]["Mispred."] < 0.2

    def test_fig11_schema(self):
        rows = figures.fig11_rows(SMALL, apps=("T",), graphs=("C",))
        assert rows[0]["gpu_breaking_benefit"] >= 1.0

    def test_fig12_monotone(self):
        rows = figures.fig12_rows(SMALL, apps=("T",), graphs=("C",))
        row = rows[0]
        assert row["speedup_1su"] == 1.0
        assert row["speedup_16su"] >= row["speedup_2su"] - 1e-9

    def test_fig13_monotone(self):
        rows = figures.fig13_rows(SMALL, apps=("T",), graphs=("C",))
        row = rows[0]
        assert row["speedup_bw2"] == 1.0
        assert row["speedup_bw64"] >= 1.0

    def test_fig14_percentiles(self):
        rows = figures.fig14_left_rows(SMALL)
        for row in rows:
            assert row["p10"] <= row["p50"] <= row["p99"] <= row["max"]

    def test_fig15_small(self):
        rows = figures.fig15_matrix_rows(matrices=("L",),
                                         dataflows=("outer", "gustavson"))
        assert len(rows) == 2
        assert all(r["speedup"] > 0 for r in rows)

    def test_fig16_small(self):
        rows = figures.fig16_rows(matrices=("L", "G"))
        names = {r["system"] for r in rows}
        assert "gamma" in names and "sparsecore_inner" in names
        base = next(r for r in rows if r["system"] == "sparsecore_inner")
        assert base["gmean_speedup_over_sparsecore_inner"] == \
            pytest.approx(1.0)


class TestTables:
    def test_table1(self):
        assert len(tables.table1_rows()) == 14

    def test_table2_matches_paper(self):
        assert all(r["match"] for r in tables.table2_rows())

    def test_table3(self):
        assert len(tables.table3_rows()) == 10

    def test_table4_and_5(self):
        assert len(tables.table4_rows(scale=SMALL)) == 10
        assert len(tables.table5_rows()) == 13


class TestReporting:
    def test_render_basic(self):
        text = render([{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}], "T")
        assert "T" in text
        assert "a" in text and "b" in text and "c" in text
        assert "10" in text

    def test_render_empty(self):
        assert "(no rows)" in render([])

    def test_gmean(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)
        assert gmean([]) == 0.0
        assert gmean([0.0, -1.0]) == 0.0
