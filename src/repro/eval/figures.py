"""Figure regeneration: one function per figure of Section 6.

Every function returns a list of row dicts (render with
:func:`repro.eval.reporting.render`).  ``scale`` rescales the synthetic
stand-in graphs; heavy (app, graph) pairs additionally get per-pair
scale trims so the pure-Python harness stays tractable — trims shrink
the workload, not the comparison (every machine prices the same run).
"""

from __future__ import annotations

import numpy as np

from repro.eval.reporting import gmean
from repro.machine.context import Machine
from repro.perf.cache import default_run_cache
from repro.tensor.datasets import MATRIX_FIGURE_ORDER
from repro.workloads import (
    BW_SWEEP,
    HEAVY_TRIMS,
    SU_SWEEP,
    figure_apps,
    figure_datasets,
    run_workload,
    workload_for_app,
)

#: Figure membership lives in the workload registry
#: (:data:`repro.workloads.FIGURES`); these constants are derived views
#: in the app-code convention the figure functions use.

#: Figure 7 workloads (vs FlexMiner / TrieJax / GRAMER).
FIG7_APPS = figure_apps("fig07")
FIG7_GRAPHS = figure_datasets("fig07")

#: Figure 8 workloads (vs CPU, all ten graphs).
FIG8_APPS = figure_apps("fig08")
FIG8_GRAPHS = figure_datasets("fig08")

FIG11_APPS = figure_apps("fig11")
FIG11_GRAPHS = figure_datasets("fig11")

FIG12_APPS = figure_apps("fig12")
FIG12_GRAPHS = figure_datasets("fig12")


def _run(family: str, app: str, dataset: str, scale: float = 1.0) -> dict:
    """One run's metrics, priced from the default run cache's trace."""
    return run_workload(workload_for_app(family, app), dataset, scale,
                        cache=default_run_cache()).metrics


def _metrics(app: str, graph: str, scale: float) -> dict:
    trim = HEAVY_TRIMS.get((app, graph), 1.0)
    return _run("gpm", app, graph, round(scale * trim, 4))


# ---------------------------------------------------------------------------
# Figure 7 — SparseCore vs FlexMiner / TrieJax (+ GRAMER, Section 6.3.1)
# ---------------------------------------------------------------------------


def fig07_rows(scale: float = 1.0, apps=FIG7_APPS,
               graphs=FIG7_GRAPHS) -> list[dict]:
    """Speedup of SparseCore (1 SU) over each accelerator (1 CU)."""
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            sc = m["sc_cycles_1su_1cu"]
            rows.append(
                {
                    "app": app,
                    "graph": graph,
                    "vs_flexminer": m["flexminer_cycles"] / sc,
                    "vs_triejax": (m["triejax_cycles"] / sc
                                   if m["triejax_cycles"] else None),
                    "vs_gramer": m["gramer_cycles"] / sc,
                }
            )
    return rows


def fig07_summary(rows: list[dict]) -> dict:
    return {
        "gmean_vs_flexminer": gmean(r["vs_flexminer"] for r in rows),
        "gmean_vs_triejax": gmean(
            r["vs_triejax"] for r in rows if r["vs_triejax"]),
        "gmean_vs_gramer": gmean(r["vs_gramer"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Figure 8 — speedups over the CPU baseline
# ---------------------------------------------------------------------------


def fig08_rows(scale: float = 1.0, apps=FIG8_APPS,
               graphs=FIG8_GRAPHS) -> list[dict]:
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            rows.append({
                "app": app,
                "graph": graph,
                "speedup": m["speedup_vs_cpu"],
                "count": m["count"],
            })
    return rows


def fig08_fsm_rows(scale: float = 0.045,
                   supports=(0.0104, 0.0207)) -> list[dict]:
    """FSM on mico at the paper's 1K/2K thresholds (rescaled by |V|)."""
    from repro.arch.cpu import CpuModel
    from repro.arch.sparsecore import SparseCoreModel
    from repro.gpm.fsm import run_fsm
    from repro.graph.datasets import load_graph

    graph = load_graph("mico", scale, num_labels=4)
    rows = []
    for frac in supports:
        machine = Machine(name="fsm")
        support = max(1, int(graph.num_vertices * frac))
        result = run_fsm(graph, support=support, machine=machine)
        cpu = CpuModel().cost(machine.trace)
        sc = SparseCoreModel().cost(machine.trace)
        rows.append({
            "app": "FSM",
            "graph": "M",
            "support": support,
            "paper_support_equiv": f"{round(frac * 96600 / 1000)}K",
            "candidates": result.candidates_checked,
            "frequent_patterns": len(result.frequent),
            "speedup": sc.speedup_over(cpu),
        })
    return rows


def fig08_summary(rows: list[dict]) -> dict:
    speeds = [r["speedup"] for r in rows]
    nested = [r["speedup"] for r in rows if r["app"] in ("T", "4C", "5C")]
    flat = [r["speedup"] for r in rows if r["app"] in ("TS", "4CS", "5CS")]
    return {
        "gmean_speedup": gmean(speeds),
        "max_speedup": max(speeds),
        "nested_benefit": gmean(nested) / gmean(flat) if flat else None,
    }


# ---------------------------------------------------------------------------
# Figures 9/10 — cycle breakdowns
# ---------------------------------------------------------------------------

FIG9_APPS = figure_apps("fig09")
FIG10_APPS = figure_apps("fig10")


def fig09_rows(scale: float = 1.0, apps=FIG9_APPS,
               graphs=FIG8_GRAPHS) -> list[dict]:
    """CPU execution breakdown (Cache / Mispred. / Other / Intersection)."""
    return _breakdown_rows("cpu_breakdown", apps, graphs, scale)


def fig10_rows(scale: float = 1.0, apps=FIG10_APPS,
               graphs=FIG8_GRAPHS) -> list[dict]:
    """SparseCore execution breakdown."""
    return _breakdown_rows("sc_breakdown", apps, graphs, scale)


def _breakdown_rows(which: str, apps, graphs, scale: float) -> list[dict]:
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            row = {"app": app, "graph": graph}
            row.update({k: round(v, 4) for k, v in m[which].items()})
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 11 — vs GPU with/without symmetry breaking
# ---------------------------------------------------------------------------


def fig11_rows(scale: float = 1.0, apps=FIG11_APPS,
               graphs=FIG11_GRAPHS) -> list[dict]:
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            sc = m["sc_cycles"]
            rows.append({
                "app": app,
                "graph": graph,
                "speedup_vs_gpu_no_breaking":
                    m["gpu_cycles_no_breaking"] / sc,
                "speedup_vs_gpu_breaking": m["gpu_cycles_breaking"] / sc,
                "gpu_breaking_benefit":
                    m["gpu_cycles_no_breaking"] / m["gpu_cycles_breaking"],
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — varying the number of SUs
# ---------------------------------------------------------------------------


def fig12_rows(scale: float = 1.0, apps=FIG12_APPS,
               graphs=FIG12_GRAPHS) -> list[dict]:
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            base = m["su_sweep"][1]
            row = {"app": app, "graph": graph}
            for n in SU_SWEEP:
                row[f"speedup_{n}su"] = base / m["su_sweep"][n]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 13 — varying S-Cache bandwidth
# ---------------------------------------------------------------------------


def fig13_rows(scale: float = 1.0, apps=FIG12_APPS,
               graphs=FIG12_GRAPHS) -> list[dict]:
    rows = []
    for app in apps:
        for graph in graphs:
            m = _metrics(app, graph, scale)
            base = m["bw_sweep"][2]
            row = {"app": app, "graph": graph}
            for bw in BW_SWEEP:
                row[f"speedup_bw{bw}"] = base / m["bw_sweep"][bw]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 14 — stream length distributions
# ---------------------------------------------------------------------------

FIG14_LEFT_APPS = figure_apps("fig14l")
FIG14_PERCENTILES = (10, 25, 50, 75, 90, 99)


def fig14_left_rows(scale: float = 1.0, graph: str = "E") -> list[dict]:
    """Stream-length CDF per application on email-eu-core."""
    rows = []
    for app in FIG14_LEFT_APPS:
        lengths = _metrics(app, graph, scale)["stream_lengths"]
        rows.append(_length_row({"app": app, "graph": graph}, lengths))
    return rows


def fig14_right_rows(scale: float = 1.0, cutoff: int = 500) -> list[dict]:
    """Triangle-counting stream lengths across all ten graphs
    (cut off at 500, as in the paper)."""
    rows = []
    for graph in FIG8_GRAPHS:
        lengths = _metrics("T", graph, scale)["stream_lengths"]
        lengths = lengths[lengths <= cutoff]
        rows.append(_length_row({"app": "T", "graph": graph}, lengths))
    return rows


def _length_row(row: dict, lengths: np.ndarray) -> dict:
    if lengths.size == 0:
        row.update({f"p{p}": 0 for p in FIG14_PERCENTILES})
        row["max"] = 0
        return row
    for p in FIG14_PERCENTILES:
        row[f"p{p}"] = int(np.percentile(lengths, p))
    row["max"] = int(lengths.max())
    return row


# ---------------------------------------------------------------------------
# Figure 15 — tensor computation speedup over CPU
# ---------------------------------------------------------------------------


def fig15_matrix_rows(matrices=tuple(MATRIX_FIGURE_ORDER),
                      dataflows=("inner", "outer", "gustavson")) -> list[dict]:
    rows = []
    for code in matrices:
        for dataflow in dataflows:
            m = _run("spmspm", dataflow, code)
            rows.append({
                "matrix": code,
                "dataflow": dataflow,
                "speedup": m["speedup_vs_cpu"],
                "cpu_cycles": m["cpu_cycles"],
                "sc_cycles": m["sc_cycles"],
            })
    return rows


def fig15_tensor_rows(tensors=("Ch", "U")) -> list[dict]:
    rows = []
    for code in tensors:
        for kernel in ("ttv", "ttm"):
            m = _run("tensor", kernel, code)
            rows.append({"tensor": code, "kernel": kernel.upper(),
                         "speedup": m["speedup_vs_cpu"]})
    return rows


def fig15_summary(matrix_rows: list[dict],
                  tensor_rows: list[dict]) -> dict:
    by_flow: dict[str, list[float]] = {}
    for row in matrix_rows:
        by_flow.setdefault(row["dataflow"], []).append(row["speedup"])
    summary = {f"avg_{k}": gmean(v) for k, v in by_flow.items()}
    for kernel in ("TTV", "TTM"):
        summary[f"avg_{kernel.lower()}"] = gmean(
            r["speedup"] for r in tensor_rows if r["kernel"] == kernel)
    return summary


# ---------------------------------------------------------------------------
# Figure 16 — vs OuterSPACE / ExTensor / Gamma
# ---------------------------------------------------------------------------


def fig16_rows(matrices=("C204", "L", "G", "CA", "H")) -> list[dict]:
    """Gmean speedups over SparseCore inner-product (one CU each)."""
    per_matrix: dict[str, dict[str, float]] = {}
    for code in matrices:
        cycles: dict[str, float] = {}
        for dataflow in ("inner", "outer", "gustavson"):
            m = _run("spmspm", dataflow, code)
            cycles[f"sparsecore_{dataflow}"] = m["sc_cycles_1su"]
            cycles[m["accel_name"]] = m["accel_cycles"]
        per_matrix[code] = cycles

    systems = ["sparsecore_inner", "extensor", "sparsecore_outer",
               "outerspace", "sparsecore_gustavson", "gamma"]
    rows = []
    for system in systems:
        speedups = [
            per_matrix[c]["sparsecore_inner"] / per_matrix[c][system]
            for c in matrices
        ]
        rows.append({
            "system": system,
            "gmean_speedup_over_sparsecore_inner": gmean(speedups),
        })
    return rows
