"""Design-space explorer: axes, grids, Pareto fronts, the sweep runner."""

import dataclasses
import json

import pytest

from repro.arch.area import SPARSECORE_TOTAL_MM2, sparsecore_area_mm2
from repro.arch.config import (
    CpuConfig,
    MachineConfigs,
    SparseCoreConfig,
    default_configs,
)
from repro.errors import ConfigError
from repro.explore import (
    Axis,
    grid_points,
    pareto_flags,
    pareto_front,
    parse_axes,
    parse_axis,
    run_sweep,
)


# -- axis parsing ------------------------------------------------------------

def test_parse_explicit_list():
    axis = parse_axis("num_sus=1,2,4,8,16")
    assert axis == Axis("num_sus", (1, 2, 4, 8, 16))


def test_parse_geometric_range():
    assert parse_axis("scache_bandwidth=2..64").values == (2, 4, 8, 16,
                                                           32, 64)


def test_parse_arithmetic_range():
    assert parse_axis("num_sus=2..8:2").values == (2, 4, 6, 8)
    # No running-sum drift: hi on the step grid is kept and every value
    # is the literal the user would type.
    assert parse_axis("scalar_cpi=0.1..0.3:0.1").values == (0.1, 0.2, 0.3)
    assert parse_axis("op_issue_cycles=0.5..1.5:0.1").values == (
        0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def test_parse_mixed_list_and_range():
    assert parse_axis("num_sus=1,2..8").values == (1, 2, 4, 8)


@pytest.mark.parametrize("text", [
    "num_sus",                  # no '='
    "num_sus=",                 # no values
    "warp_size=1,2",            # unknown field
    "num_sus=1,2,two",          # non-numeric value
    "num_sus=1,1",              # duplicate values
    "num_sus=8..2",             # empty range
    "num_sus=2..6",             # 6 is not 2 doubled
    "num_sus=2..8:0",           # non-positive step
    "cache=1,2",                # nested config is not sweepable
    "area_mm2=1,2",             # derived from the config, not a field
    "scalar_cpi=nan",           # non-finite value
    "scalar_cpi=0.1..inf:0.1",  # non-finite bound
])
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_axis(text)


def test_parse_axes_rejects_duplicate_fields():
    with pytest.raises(ConfigError):
        parse_axes(["num_sus=1,2", "num_sus=4,8"])


# -- grids -------------------------------------------------------------------

def test_grid_is_row_major_product():
    axes = parse_axes(["num_sus=1,2", "scache_bandwidth=16,32"])
    points = grid_points(axes, default_configs())
    assert [p.values for p in points] == [
        (("num_sus", 1), ("scache_bandwidth", 16)),
        (("num_sus", 1), ("scache_bandwidth", 32)),
        (("num_sus", 2), ("scache_bandwidth", 16)),
        (("num_sus", 2), ("scache_bandwidth", 32)),
    ]
    assert [p.index for p in points] == [0, 1, 2, 3]
    assert points[0].config.sparsecore.num_sus == 1
    assert points[0].config.sparsecore.scache_bandwidth == 16
    assert points[0].label == "num_sus=1,scache_bandwidth=16"


def test_grid_point_configs_are_distinct_and_fingerprinted():
    points = grid_points(parse_axes(["num_sus=1,2,4"]), default_configs())
    fps = {p.fingerprint() for p in points}
    assert len(fps) == 3


@pytest.mark.parametrize("axis", ["num_sus=0,1", "num_sus=1.5"])
def test_grid_validation_fires_at_construction(axis):
    with pytest.raises(ConfigError):
        grid_points(parse_axes([axis]), default_configs())


def test_grid_keeps_base_cpu():
    base = MachineConfigs(cpu=CpuConfig(cycles_per_step=2.5))
    points = grid_points(parse_axes(["num_sus=1,2"]), base)
    assert all(p.config.cpu.cycles_per_step == 2.5 for p in points)


def test_area_answers_to_su_count_and_bandwidth_only():
    base = SparseCoreConfig()
    assert sparsecore_area_mm2(base) == SPARSECORE_TOTAL_MM2
    for f in dataclasses.fields(base):
        if f.name == "cache":
            continue
        bigger = dataclasses.replace(
            base, **{f.name: getattr(base, f.name) * 2})
        grows = f.name in ("num_sus", "scache_bandwidth")
        assert (sparsecore_area_mm2(bigger) > SPARSECORE_TOTAL_MM2) \
            == grows, f.name


# -- pareto ------------------------------------------------------------------

def test_pareto_drops_dominated_points():
    points = [
        {"a": 1.0, "c": 100.0},   # front (cheapest)
        {"a": 2.0, "c": 50.0},    # front
        {"a": 3.0, "c": 60.0},    # dominated by (2, 50)
        {"a": 4.0, "c": 40.0},    # front
        {"a": 5.0, "c": 40.0},    # dominated: same cycles, more area
    ]
    assert pareto_flags(points, "a", "c") == [True, True, False, True,
                                              False]
    front = pareto_front(points, "a", "c")
    assert [p["a"] for p in front] == [1.0, 2.0, 4.0]


def test_pareto_keeps_exact_ties():
    points = [{"a": 1.0, "c": 10.0}, {"a": 1.0, "c": 10.0}]
    assert pareto_flags(points, "a", "c") == [True, True]


def test_pareto_empty():
    assert pareto_front([]) == []


# -- the sweep runner --------------------------------------------------------

@pytest.fixture(scope="module")
def triangle_sweep(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    return run_sweep(["triangle"], ["num_sus=1,2,4,8,16"], scale=0.3,
                     cache_dir=cache_dir), cache_dir


def test_sweep_reproduces_figure12_bit_identically(triangle_sweep):
    from repro.workloads import get_workload, run_workload

    report, _ = triangle_sweep
    metrics = run_workload(get_workload("triangle"), None, 0.3,
                           cache=None).metrics
    rows = {dict(r["values"])["num_sus"]: r["sc_cycles"]
            for r in report.workloads[0].rows}
    assert rows == metrics["su_sweep"]


def test_sweep_reproduces_figure13_bit_identically(tmp_path):
    from repro.workloads import get_workload, run_workload

    report = run_sweep(["triangle"], ["scache_bandwidth=2..64"],
                       scale=0.3, cache_dir=tmp_path)
    metrics = run_workload(get_workload("triangle"), None, 0.3,
                           cache=None).metrics
    rows = {dict(r["values"])["scache_bandwidth"]: r["sc_cycles"]
            for r in report.workloads[0].rows}
    assert rows == metrics["bw_sweep"]


def test_sweep_records_each_workload_at_most_once(triangle_sweep):
    report, _ = triangle_sweep
    n = report.n_points
    assert report.cache["misses"] <= 1
    assert report.cache["hit_rate"] >= (n - 1) / n


def test_sweep_reuses_warm_cache(triangle_sweep):
    report, cache_dir = triangle_sweep
    again = run_sweep(["triangle"], ["num_sus=1,2,4,8,16"], scale=0.3,
                      cache_dir=cache_dir)
    assert again.cache["misses"] == 0
    assert again.cache["hit_rate"] == 1.0
    assert [r["sc_cycles"] for r in again.workloads[0].rows] \
        == [r["sc_cycles"] for r in report.workloads[0].rows]


def test_sweep_report_shape(triangle_sweep):
    report, _ = triangle_sweep
    assert report.ok
    assert report.preset == "paper"
    assert report.n_points == 5
    sweep = report.workloads[0]
    assert sweep.workload == "triangle"
    assert len(sweep.rows) == 5
    for row in sweep.rows:
        assert row["area_mm2"] > 0
        assert row["sc_cycles"] > 0
        assert row["config_fingerprint"]
        assert isinstance(row["pareto"], bool)
    assert sweep.pareto  # something is always non-dominated
    assert "num_sus" in sweep.sensitivity
    json.dumps(report.to_json())  # machine-readable end to end
    assert "triangle" in report.render()


def test_sweep_two_axis_grid(tmp_path):
    report = run_sweep(["triangle"],
                       ["num_sus=2,4", "scache_bandwidth=16,32"],
                       scale=0.3, cache_dir=tmp_path)
    assert report.n_points == 4
    assert len(report.workloads[0].rows) == 4
    assert report.cache["misses"] <= 1
    assert report.cache["hit_rate"] >= 3 / 4
    fps = {r["config_fingerprint"] for r in report.workloads[0].rows}
    assert len(fps) == 4


def test_warm_sweep_reads_each_trace_once(tmp_path, monkeypatch):
    import repro.perf.engine as engine
    from repro.perf.cache import RunCache

    args = (["triangle", "spmspm"], ["num_sus=1,2,4,8,16"])
    run_sweep(*args, scale=0.3, cache_dir=tmp_path)

    reads: dict[str, int] = {}
    jobs = []
    get, run_jobs = RunCache.get, engine.run_jobs_report

    def counting_get(self, key, **kwargs):
        reads[key] = reads.get(key, 0) + 1
        return get(self, key, **kwargs)

    def counting_run_jobs(job_list, **kwargs):
        jobs.extend(job_list)
        return run_jobs(job_list, **kwargs)

    monkeypatch.setattr(RunCache, "get", counting_get)
    monkeypatch.setattr(engine, "run_jobs_report", counting_run_jobs)
    warm = run_sweep(*args, scale=0.3, cache_dir=tmp_path)
    assert warm.ok and warm.cache["misses"] == 0
    assert sorted(reads.values()) == [1, 1]
    assert jobs == []
    assert sum(len(w.rows) for w in warm.workloads) == 10


#: Two values of every sweepable field, one grid over all seven axes.
ALL_AXES = {"num_sus": "1,8", "scache_bandwidth": "8,64",
            "op_issue_cycles": "1.0,3.0", "nested_translate_cycles": "0.5,2.0",
            "implicit_overlap": "1,4", "scalar_cpi": "0.4,1.0",
            "flop_cycles_per_pair": "0.5,2.0"}

#: One workload per family, on small suite datasets.
FAMILY_WORKLOADS = {"triangle": None, "spmspm": "laser",
                    "ttv": "chicago_crime"}


def test_sweep_rows_match_the_pipeline_per_point(tmp_path):
    from repro.arch.config import sweepable_fields
    from repro.workloads import get_workload, price_run, run_workload

    assert sorted(ALL_AXES) == sorted(sweepable_fields())
    axes = [f"{field}={values}" for field, values in ALL_AXES.items()]
    report = run_sweep(list(FAMILY_WORKLOADS), axes,
                       datasets=FAMILY_WORKLOADS, scale=0.3,
                       cache_dir=tmp_path)
    assert report.ok
    points = grid_points(parse_axes(axes), default_configs())
    assert len(points) == 2 ** len(ALL_AXES)
    for sweep in report.workloads:
        spec = get_workload(sweep.workload)
        rec = run_workload(spec, sweep.dataset, sweep.scale, cache=None,
                           price=False)
        assert [r["point"] for r in sweep.rows] \
            == [p.index for p in points]
        for row, point in zip(sweep.rows, points):
            metrics = price_run(spec, rec.dataset, rec.trace,
                                lengths=rec.lengths, meta=rec.meta,
                                configs=point.config)
            assert row["config_fingerprint"] == point.fingerprint()
            for column in ("sc_cycles", "cpu_cycles", "speedup_vs_cpu"):
                assert row[column] == metrics[column], \
                    (sweep.workload, point.label, column)


def test_warm_sweep_prices_one_cpu_and_one_sparsecore_cost_per_point(
        tmp_path, monkeypatch):
    import repro.accel as accel
    from repro.arch.cpu import CpuModel
    from repro.arch.sparsecore import SparseCoreModel

    args = (list(FAMILY_WORKLOADS), ["num_sus=1,4", "implicit_overlap=1,2"])
    kwargs = {"datasets": FAMILY_WORKLOADS, "scale": 0.3,
              "cache_dir": tmp_path}
    run_sweep(*args, **kwargs)

    calls: dict[str, int] = {}
    models = [CpuModel, SparseCoreModel,
              *(getattr(accel, name) for name in accel.__all__
                if name.endswith("Model"))]
    for model in models:
        def counting(self, trace, *rest, _cost=model.cost, **kw):
            calls[type(self).name] = calls.get(type(self).name, 0) + 1
            return _cost(self, trace, *rest, **kw)
        monkeypatch.setattr(model, "cost", counting)
    warm = run_sweep(*args, **kwargs)
    assert warm.ok and warm.cache["misses"] == 0
    n = sum(len(w.rows) for w in warm.workloads)
    assert n == 3 * 4
    assert calls == {"cpu": n, "sparsecore": n}


@pytest.mark.parametrize("axes", [
    ["num_sus=1,2", "implicit_overlap=1,2,4",
     "flop_cycles_per_pair=0.5,1.0,2.0"],
    ["flop_cycles_per_pair=0.5,1.0,2.0", "implicit_overlap=1,2,4",
     "num_sus=1,2"],
], ids=["segment-fields-vary-fastest", "segment-fields-vary-slowest"])
def test_sweep_reduces_segments_once_per_key(axes, tmp_path, monkeypatch):
    import repro.arch.sparsecore as sparsecore

    run_sweep(["triangle"], axes, scale=0.3, cache_dir=tmp_path)
    reductions = []
    reduce_segments = sparsecore._reduce_segments

    def counting(t, *key):
        reductions.append(key)
        return reduce_segments(t, *key)

    monkeypatch.setattr(sparsecore, "_reduce_segments", counting)
    report = run_sweep(["triangle"], axes, scale=0.3, cache_dir=tmp_path)
    points = grid_points(parse_axes(axes), default_configs())
    keys = {sparsecore.segment_key(p.config.sparsecore) for p in points}
    assert len(keys) == 9 > sparsecore.SEGMENT_MEMO_ENTRIES
    assert sorted(reductions) == sorted(keys)
    assert [r["point"] for r in report.workloads[0].rows] \
        == [p.index for p in points]


def test_sweep_rejects_empty_axes(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep(["triangle"], [], cache_dir=tmp_path)


def test_sweep_unknown_preset(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep(["triangle"], ["num_sus=1,2"], preset="nope",
                  cache_dir=tmp_path)


def test_sweep_emits_ledger_spans(tmp_path, monkeypatch):
    from repro.obs.ledger import (
        aggregate,
        read_ledger,
        reset_default_ledger,
    )

    led_dir = tmp_path / "ledger"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(led_dir))
    reset_default_ledger()
    try:
        run_sweep(["triangle"], ["num_sus=1,4"], scale=0.3,
                  cache_dir=tmp_path / "cache")
    finally:
        monkeypatch.delenv("REPRO_LEDGER_DIR")
        reset_default_ledger()

    agg = aggregate(read_ledger(led_dir))
    assert agg["explore"]["sweeps"] == 1
    assert agg["explore"]["points_priced"] == 2
    assert agg["explore"]["grid_points"] == 2
    assert agg["explore"]["workloads_swept"] == 1
    assert agg["explore"]["lookups"] == 3
    assert agg["explore"]["hit_rate"] is not None


# -- CLI ---------------------------------------------------------------------

def test_cli_explore_smoke(capsys):
    from repro.cli import main

    assert main(["explore", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "explore --smoke ok" in out
    assert "pareto" in out


def test_cli_explore_json(capsys):
    from repro.cli import main

    assert main(["explore", "triangle", "--axis", "num_sus=1,4",
                 "--scale", "0.3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_points"] == 2
    assert payload["workloads"][0]["workload"] == "triangle"


@pytest.mark.parametrize("axis", [
    "warp_size=1,2",            # no such field
    "su_buffer_width=8,16",     # read only while recording
    "num_stream_regs=4,16",     # read only by the executor
    "rob_size=64,128",          # Table 2 only
])
def test_cli_explore_bad_axis_exits_2(capsys, axis):
    from repro.arch.config import sweepable_fields
    from repro.cli import main

    assert main(["explore", "triangle", "--axis", axis]) == 2
    err = capsys.readouterr().err
    assert axis.split("=")[0] in err
    assert all(f in err for f in sweepable_fields())


def test_cli_explore_no_workload_exits_2(capsys):
    from repro.cli import main

    assert main(["explore"]) == 2
