"""Ablation: multi-core scaling of the Table 2 six-core configuration.

Not a paper figure (the paper's comparisons are one-CU-vs-one-SU), but
Table 2 configures six cores; this ablation records how the modelled
system scales when outer-loop work is sharded across them, including
the load imbalance that hub-heavy graphs induce.
"""

from conftest import write_result

from repro.arch.multicore import MultiCoreModel
from repro.eval.reporting import render
from repro.gpm import run_app
from repro.graph import load_graph

APPS = ("T", "TC", "4C")
GRAPHS = ("C", "E", "B")
CORES = (1, 2, 4, 6)


def run_ablation():
    rows = []
    for app in APPS:
        for code in GRAPHS:
            graph = load_graph(code, scale=0.5)
            trace = run_app(app, graph).trace
            row = {"app": app, "graph": code}
            for cores in CORES:
                rep = MultiCoreModel(cores).cost(trace)
                row[f"speedup_{cores}c"] = rep.speedup
            row["imbalance_6c"] = MultiCoreModel(6).cost(trace).imbalance
            rows.append(row)
    return rows


def test_ablation_multicore(once):
    rows = once(run_ablation)
    write_result("ablation_multicore",
                 render(rows, "Ablation: multi-core scaling (Table 2)"))
    for row in rows:
        assert row["speedup_1c"] == 1.0
        assert 1.0 <= row["speedup_6c"] <= 6.0
        assert row["speedup_6c"] >= row["speedup_2c"] - 1e-9
