"""Command-line interface: ``python -m repro <command>``.

Commands:

``datasets``
    List the graph/matrix/tensor stand-in registries with their stats.
``run <app> --graph <name>``
    Run a GPM application and print counts, cycles, speedup, breakdowns.
``pattern <name> --graph <name>``
    Compile an arbitrary library pattern; print the plan, the emitted
    stream assembly, and the run results.
``table <1|2|3|4|5>`` / ``figure <7|8|9|10|11|12|13|14|15|16>``
    Regenerate one table/figure of the paper and print it.
``spmspm --matrix <name> --dataflow <inner|outer|gustavson>``
    Run one spmspm dataflow and print its machine comparison.
``difftest [--cases N] [--seed S] [--smoke] [--family F] [--case-seed C]``
    Differential conformance sweep: fuzz the stream ISA across every
    backend (functional / pure-Python / stream-unit / machine /
    executor, plus the GPM and tensor stacks) and check cycle-model
    invariants.  ``--self-check`` proves the harness catches a planted
    off-by-one.  ``--json`` emits the machine-readable report.
``profile <workload...> [--jobs N] [--json] [--trace FILE] [--timeline]``
    Run GPM patterns or tensor kernels under the observability probe:
    hierarchical performance counters, five-bucket cycle attribution
    (checked against the cost model's total), harness wall-clock, and a
    Chrome trace-event export loadable in Perfetto (``--trace``).
    Several workloads fan out over ``--jobs`` worker processes;
    ``--smoke`` profiles the CI pair (triangle + spmspm) with all
    checks enforced.
``cache <stats|prewarm|fsck|clear> [--dir D] [--jobs N] [--scale S]``
    Manage the persistent run cache (recorded traces, content-addressed
    by workload + dataset generator parameters).  ``prewarm`` records
    every run behind the figure suite so subsequent figure/table
    commands only re-price cached traces.  ``fsck`` verifies every
    entry end-to-end (sidecar JSON, payload checksum, format version)
    and quarantines whatever fails; ``stats`` counts anomalies.
``chaos [--smoke] [--seed S] [--timeout T] [--jobs N]``
    Robustness gate: run the figure suite fault-free and again under a
    seeded fault plan (worker crashes, hangs, transient I/O errors,
    cache corruption) and assert metrics stay bit-identical, no job is
    lost, and the retry/fallback/quarantine counters are nonzero.  See
    docs/robustness.md.
``workloads [--list]``
    List the unified workload registry (name, family, app selector,
    dataset kind, figure membership) that ``run``/``spmspm``/
    ``profile``/``cache prewarm`` all resolve through.
``obs <report|trace> [--dir D] [--json] [--smoke]``
    Host-side telemetry from the persistent run ledger
    (``$REPRO_LEDGER_DIR``): ``report`` aggregates cache hit rate,
    per-stage p50/p99 wall time, retry/fallback totals, and
    per-workload tables (``--smoke`` is the CI gate: nonzero exit on an
    empty or malformed ledger); ``trace OUT.json`` renders the whole
    ledger as a Perfetto-loadable Chrome trace (one lane per process).
``explore <workload...> --axis FIELD=VALUES [--preset P] [--json]``
    Design-space sweep: expand one or more ``--axis`` specs
    (``num_sus=1,2,4,8,16``, ``scache_bandwidth=2..64``; FIELD is one of
    the fields pricing reads, ``sweepable_fields()``) into a grid of
    machine configurations around a named preset, record the workloads
    the trace cache lacks through the parallel engine, price every
    (workload, point) pair in-process from one read of each trace, and
    print cycles, modelled area, the area/cycles Pareto front, and
    per-axis sensitivity.  ``--smoke`` is the CI gate: a 2-point sweep
    whose base point must price bit-identically to the non-explore
    pipeline.
``bench diff OLD.json NEW.json [--tolerance T]``
    Schema-aware benchmark comparison over ``BENCH_wallclock.json`` /
    ``BENCH_profile.json``: flags wall-clock and speedup-ratio
    regressions beyond the tolerance; exit 1 on regression, 2 on a
    schema/missing-key problem — the CI regression gate.

Workloads and datasets resolve through :mod:`repro.workloads` on every
subcommand; unknown names exit with status 2 and a one-line message.
Every command that records does so through the one recorder,
:class:`~repro.record.columnar.ColumnarTrace` (see docs/performance.md),
``profile`` and the ISA executor behind ``difftest`` included: a
profiled run's counters and timeline come from its frozen trace.
"""

from __future__ import annotations

import argparse
import sys


def _dataset_for_args(spec, args) -> str:
    """Resolve the per-kind dataset flags for one workload spec."""
    from repro.workloads import dataset_for

    return dataset_for(
        spec,
        graph=getattr(args, "graph", None),
        matrix=getattr(args, "matrix", None),
        tensor=getattr(args, "tensor", None),
    )


def _cmd_datasets(_args) -> int:
    from repro.eval.reporting import render
    from repro.graph.datasets import table4_rows
    from repro.tensor.datasets import table5_rows

    print(render(table4_rows(), "Graph stand-ins (Table 4)"))
    print()
    print(render(table5_rows(), "Matrix/tensor stand-ins (Table 5)"))
    return 0


def _cmd_run(args) -> int:
    from repro.arch import CpuModel, SparseCoreModel
    from repro.workloads import run_workload, workload_for_app

    spec = workload_for_app("gpm", args.app)
    dataset = _dataset_for_args(spec, args)
    rec = run_workload(spec, dataset, args.scale, cache=None, price=False)
    print(f"graph: {rec.summary['graph']}")
    cpu = CpuModel().cost(rec.trace)
    sc = SparseCoreModel().cost(rec.trace)
    print(f"result: {rec.meta['count']}")
    print(f"stream ops: {rec.trace.num_ops}")
    print(f"cpu cycles:        {cpu.total_cycles:.4g}")
    print(f"sparsecore cycles: {sc.total_cycles:.4g}")
    print(f"speedup: {sc.speedup_over(cpu):.2f}x")
    print("cpu breakdown:       ", {k: round(v, 3)
                                    for k, v in cpu.breakdown().items()})
    print("sparsecore breakdown:", {k: round(v, 3)
                                    for k, v in sc.breakdown().items()})
    from repro.eval.reporting import render_cycle_reports

    print()
    print(render_cycle_reports([cpu, sc], "per-component cycles"))
    return 0


def _cmd_pattern(args) -> int:
    from repro.gpm.apps import _pattern_by_name
    from repro.gpm.compiler import compile_pattern
    from repro.graph.datasets import load_graph
    from repro.machine.context import Machine

    pattern = _pattern_by_name(args.pattern)
    compiled = compile_pattern(
        pattern,
        vertex_induced=not args.edge_induced,
        use_nested=not args.no_nested,
    )
    print(compiled.plan.describe())
    print("\nstream assembly:")
    print(str(compiled.assembly()))
    graph = load_graph(args.graph, args.scale)
    machine = Machine(name=pattern.name)
    count = compiled.count(graph, machine)
    print(f"\n{graph}")
    print(f"embeddings: {count}")
    from repro.arch import CpuModel, SparseCoreModel

    sc = SparseCoreModel().cost(machine.trace)
    cpu = CpuModel().cost(machine.trace)
    print(f"speedup vs CPU: {sc.speedup_over(cpu):.2f}x")
    return 0


def _cmd_table(args) -> int:
    from repro.eval import tables
    from repro.eval.reporting import render

    runners = {
        "1": (tables.table1_rows, "Table 1: Stream ISA"),
        "2": (tables.table2_rows, "Table 2: Architecture Configuration"),
        "3": (tables.table3_rows, "Table 3: GPM Apps"),
        "4": (tables.table4_rows, "Table 4: Graph Datasets"),
        "5": (tables.table5_rows, "Table 5: Matrix/Tensor Datasets"),
    }
    runner, title = runners[args.number]
    print(render(runner(), title))
    return 0


def _cmd_figure(args) -> int:
    from repro.eval import figures
    from repro.eval.reporting import render

    n = args.number
    if n == "7":
        rows = figures.fig07_rows(args.scale)
        print(render(rows, "Figure 7"))
        print("summary:", figures.fig07_summary(rows))
    elif n == "8":
        rows = figures.fig08_rows(args.scale)
        print(render(rows, "Figure 8"))
        print("summary:", figures.fig08_summary(rows))
    elif n == "9":
        print(render(figures.fig09_rows(args.scale), "Figure 9"))
    elif n == "10":
        print(render(figures.fig10_rows(args.scale), "Figure 10"))
    elif n == "11":
        print(render(figures.fig11_rows(args.scale), "Figure 11"))
    elif n == "12":
        print(render(figures.fig12_rows(args.scale), "Figure 12"))
    elif n == "13":
        print(render(figures.fig13_rows(args.scale), "Figure 13"))
    elif n == "14":
        print(render(figures.fig14_left_rows(args.scale),
                     "Figure 14 (left)"))
        print(render(figures.fig14_right_rows(args.scale),
                     "Figure 14 (right)"))
    elif n == "15":
        mrows = figures.fig15_matrix_rows()
        trows = figures.fig15_tensor_rows()
        print(render(mrows, "Figure 15(a)"))
        print(render(trows, "Figure 15(b)"))
        print("summary:", figures.fig15_summary(mrows, trows))
    elif n == "16":
        print(render(figures.fig16_rows(), "Figure 16"))
    return 0


def _cmd_spmspm(args) -> int:
    from repro.arch import CpuModel, SparseCoreModel
    from repro.workloads import run_workload, workload_for_app

    spec = workload_for_app("spmspm", args.dataflow)
    dataset = _dataset_for_args(spec, args)
    rec = run_workload(spec, dataset, cache=None, price=False)
    print(f"matrix: {rec.summary['matrix']}")
    cpu = CpuModel().cost(rec.trace)
    sc = SparseCoreModel().cost(rec.trace)
    print(f"C: {rec.summary['C']}")
    print(f"speedup vs CPU: {sc.speedup_over(cpu):.2f}x")
    from repro.eval.reporting import render_cycle_reports

    print(render_cycle_reports([cpu, sc], "per-component cycles"))
    return 0


def _cmd_difftest(args) -> int:
    import json

    from repro.difftest import Sizes, run_one, run_sweep, self_check

    sizes = Sizes.smoke() if args.smoke else None

    if args.self_check:
        mismatch = self_check(root_seed=args.seed, sizes=sizes)
        print("self-check: planted off-by-one caught")
        print(mismatch.render())
        return 0

    if args.case_seed is not None:
        family = args.family or "stream"
        mismatch = run_one(family, args.case_seed, sizes)
        if mismatch is None:
            print("case agrees across all backends")
            return 0
        print(mismatch.render())
        return 1

    families = (args.family,) if args.family else None
    n_cases = 60 if args.smoke and args.cases == 200 else args.cases
    kwargs = {"families": families} if families else {}
    report = run_sweep(n_cases=n_cases, root_seed=args.seed,
                       sizes=sizes, **kwargs)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    import json

    from repro.obs.profile import (
        ProfileArgs,
        profile_many,
        profile_workload,
        smoke,
        workload_names,
        write_chrome_trace,
    )

    pargs = ProfileArgs(graph=args.graph, matrix=args.matrix,
                        tensor=args.tensor, scale=args.scale,
                        max_events=args.max_events)

    if args.smoke:
        # CI pair: one GPM pattern + one SpMSpM kernel; the attribution
        # and trace-schema checks inside raise (non-zero exit) on
        # violation.
        for result in smoke(pargs):
            sc, cpu = result.sc_report, result.cpu_report
            print(f"profile --smoke {result.workload}: "
                  f"attribution ok ({result.attribution.attributed_cycles:.6g}"
                  f" == {sc.total_cycles:.6g} cycles), "
                  f"trace schema ok ({len(result.tracer.events)} events), "
                  f"speedup {sc.speedup_over(cpu):.2f}x, "
                  f"wall {result.wall_seconds:.3f}s")
        return 0

    if not args.workload:
        print("available workloads:")
        from repro.workloads import REGISTRY

        for spec in REGISTRY.values():
            print(f"  {spec.name:16s} [{spec.family}]  {spec.description}")
        return 0

    unknown = [w for w in args.workload if w not in workload_names()]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; "
              f"known: {', '.join(workload_names())}")
        return 2

    if len(args.workload) > 1:
        # Multi-workload mode: fan out over --jobs worker processes and
        # print the cross-workload comparison (model cycles + the
        # harness wall-clock each profile cost).
        from repro.perf.engine import default_workers

        jobs = args.jobs if args.jobs is not None else default_workers()
        payloads = profile_many(args.workload, pargs, jobs=jobs)
        slowest = sorted(
            ({"key": p["workload"],
              "wall_seconds": round(p["wall_seconds"], 6)}
             for p in payloads),
            key=lambda r: -r["wall_seconds"])
        if args.json:
            print(json.dumps({"profiles": payloads,
                              "slowest_jobs": slowest}, indent=2))
            return 0
        from repro.eval.reporting import render

        rows = [{
            "workload": p["workload"],
            "sc_cycles": p["reports"]["sparsecore"]["total_cycles"],
            "cpu_cycles": p["reports"]["cpu"]["total_cycles"],
            "speedup": f"{p['speedup_vs_cpu']:.2f}x",
            "wall_s": f"{p['wall_seconds']:.3f}",
        } for p in payloads]
        print(render(rows, f"profiles ({jobs} job(s))"))
        print(render([{"workload": r["key"],
                       "wall_s": f"{r['wall_seconds']:.3f}"}
                      for r in slowest], "slowest profiles"))
        return 0

    result = profile_workload(args.workload[0], pargs)
    if args.trace:
        write_chrome_trace(result, args.trace)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
        if args.timeline:
            print()
            print(result.tracer.timeline())
        if args.trace:
            print(f"\nchrome trace written to {args.trace} "
                  f"(open at https://ui.perfetto.dev)")
    return 0


def _cmd_cache(args) -> int:
    import time

    from repro.eval.reporting import render
    from repro.perf.cache import RunCache, cache_enabled, default_run_cache
    from repro.perf.engine import (
        default_workers,
        figure_suite_jobs,
        run_jobs_report,
    )

    if not args.dir and not cache_enabled():
        print("run cache disabled (REPRO_RUN_CACHE=0); "
              "pass --dir to address one explicitly")
        return 2
    cache = RunCache(args.dir) if args.dir else default_run_cache()

    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            import json

            payload = dict(stats)
            if args.verbose:
                payload["entry_list"] = cache.entries()
            print(json.dumps(payload, indent=2, default=str))
            return 0
        rows = [{"stat": k, "value": v} for k, v in stats.items()]
        print(render(rows, "run cache"))
        entries = cache.entries()
        if entries and args.verbose:
            print()
            print(render(
                [{"key": e.get("key", "?"), "kind": e.get("kind", "?"),
                  "fmt": f"v{e['format_version']}"
                         if "format_version" in e else "?",
                  "ops": e.get("num_ops", 0)} for e in entries],
                "entries"))
        return 0

    if args.action == "fsck":
        report = cache.fsck()
        if args.json:
            import json

            print(json.dumps(report, indent=2, default=str))
            return 0
        rows = [{"stat": k, "value": v} for k, v in report.items()]
        print(render(rows, "cache fsck"))
        if report["quarantined"]:
            print(f"quarantined {report['quarantined']} damaged "
                  f"file(s) under {cache.root}/quarantine")
        return 0

    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached run(s) from {cache.root}")
        return 0

    # prewarm: record (or refresh) every run behind the figure suite.
    jobs = figure_suite_jobs(args.scale, smoke=args.smoke)
    workers = args.jobs if args.jobs is not None else default_workers()
    start = time.perf_counter()
    report = run_jobs_report(jobs, workers=workers, cache_dir=cache.root)
    wall = time.perf_counter() - start
    stats = cache.stats()
    print(f"prewarmed {len(report.results)} run(s) in {wall:.1f}s "
          f"({workers} worker(s)); cache now holds "
          f"{stats['entries']} entries / {stats['bytes'] / 1e6:.1f} MB "
          f"at {stats['root']}")
    if report.retries or report.inline_fallbacks:
        print(f"resilience: {report.retries} retr(y|ies), "
              f"{report.inline_fallbacks} inline fallback(s), "
              f"{report.pool_rebuilds} pool rebuild(s)")
    if report.failures:
        for failure in report.failures:
            print(f"FAILED {failure.key}: {failure.error}: "
                  f"{failure.message} ({failure.attempts} attempts)")
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.resilience.chaos import run_chaos

    report = run_chaos(smoke=args.smoke, scale=args.scale,
                       seed=args.seed, workers=args.jobs,
                       timeout=args.timeout, max_jobs=args.max_jobs)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_workloads(args) -> int:
    from repro.workloads import REGISTRY

    if args.list:
        for name in REGISTRY:
            print(name)
        return 0
    from repro.eval.reporting import render

    rows = [{
        "workload": spec.name,
        "family": spec.family,
        "app": spec.app,
        "datasets": f"{spec.dataset_kind} (default {spec.default_dataset})",
        "figures": ",".join(t.removeprefix("fig") for t in spec.figures)
                   or "-",
    } for spec in REGISTRY.values()]
    print(render(rows, "workload registry"))
    return 0


def _render_obs_report(agg: dict) -> str:
    from repro.eval.reporting import render

    span_s = agg["span"].get("wall_span_s", 0.0) if agg["span"] else 0.0
    lines = [f"run ledger: {agg['events']} event(s) across "
             f"{agg['files']} file(s) / {agg['processes']} process(es), "
             f"{agg['malformed']} malformed line(s), span {span_s:.2f}s"]
    if agg["stages"]:
        lines.append(render(
            [{"stage": name,
              "count": s["count"],
              "total_s": f"{s['total_s']:.3f}",
              "p50_s": f"{s['p50_s']:.4f}",
              "p99_s": f"{s['p99_s']:.4f}",
              "max_s": f"{s['max_s']:.4f}"}
             for name, s in agg["stages"].items()],
            "pipeline stages"))
    cache = agg["cache"]
    lines.append(
        f"cache: {cache['lookups']} lookup(s), hit rate "
        + (f"{cache['hit_rate']:.1%}" if cache["hit_rate"] is not None
           else "n/a")
        + f" (hits={cache['hits']} misses={cache['misses']} "
          f"stale={cache['stale']} quarantined={cache['quarantined']} "
          f"errors={cache['errors']}), {cache['writes']} write(s), "
          f"{cache['write_failures']} write failure(s)")
    eng = agg["engine"]
    lines.append(
        f"engine: {eng['engine_runs']} run(s), {eng['jobs_done']} job(s) "
        f"done, submits={eng['submits']} retries={eng['retries']} "
        f"timeouts={eng['timeouts']} crashes={eng['crashes']} "
        f"pool_rebuilds={eng['pool_rebuilds']} "
        f"inline_fallbacks={eng['inline_fallbacks']} "
        f"failures={eng['failures']}")
    if agg["slowest_jobs"]:
        lines.append(render(
            [{"job": r["key"],
              "wall_s": f"{r['wall_s']:.3f}",
              "attempts": r["attempts"],
              "inline": "yes" if r.get("inline") else "-"}
             for r in agg["slowest_jobs"]],
            "slowest jobs"))
    if agg["workloads"]:
        lines.append(render(
            [{"workload": name,
              "records": w["records"],
              "record_s": f"{w['record_s']:.3f}",
              "prices": w["prices"],
              "price_s": f"{w['price_s']:.3f}"}
             for name, w in agg["workloads"].items()],
            "per-workload stage time"))
    explore = agg.get("explore") or {}
    if explore.get("sweeps"):
        lines.append(
            f"explore: {explore['sweeps']} sweep(s), "
            f"{explore['points_priced']} point(s) priced across "
            f"{explore['workloads_swept']} workload(s), sweep cache "
            f"hit rate "
            + (f"{explore['hit_rate']:.1%}"
               if explore["hit_rate"] is not None else "n/a")
            + f" ({explore['hits']}/{explore['lookups']}), "
              f"{explore['sweep_s']:.2f}s in sweeps")
    res = agg["resilience"]
    if res["knob_warnings"]:
        lines.append(f"knob warnings: {res['knob_warnings']} "
                     f"({', '.join(sorted(res['knobs']))})")
    return "\n".join(lines)


def _cmd_obs(args) -> int:
    import json
    import os

    from repro.obs.ledger import (
        ENV_DIR,
        aggregate,
        ledger_to_chrome,
        read_ledger,
    )

    root = args.dir or os.environ.get(ENV_DIR)
    if not root:
        print(f"no ledger directory: pass --dir or set ${ENV_DIR}",
              file=sys.stderr)
        return 2
    scan = read_ledger(root)

    if args.action == "trace":
        from repro.obs.schema import validate_chrome_trace

        trace = ledger_to_chrome(scan)
        validate_chrome_trace(trace)
        out = args.out or "ledger_trace.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=2)
        print(f"chrome trace with {len(trace['traceEvents'])} event(s) "
              f"written to {out} (open at https://ui.perfetto.dev)")
        return 0

    agg = aggregate(scan, top=args.top)
    if args.json:
        print(json.dumps(agg, indent=2))
    else:
        print(_render_obs_report(agg))
    if args.smoke:
        # CI gate: the preceding instrumented run must actually have
        # left a readable trail.
        problems = []
        if agg["events"] == 0:
            problems.append("ledger is empty")
        if agg["malformed"]:
            problems.append(f"{agg['malformed']} malformed line(s)")
        if agg["engine"]["jobs_done"] == 0 and not agg["stages"]:
            problems.append("no stage spans and no completed jobs")
        if problems:
            print("obs report --smoke FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print("obs report --smoke ok")
    return 0


def _cmd_explore(args) -> int:
    import json

    from repro.explore import run_sweep
    from repro.workloads import get_workload, workload_names

    if args.smoke:
        # CI gate: a tiny two-point sweep whose base point must price
        # bit-identically to the non-explore pipeline.
        workloads = ["triangle"]
        axes = ["num_sus=1,4"]
        scale = 0.3
    else:
        workloads = args.workload
        axes = list(args.axis)
        scale = args.scale
        if not workloads:
            print("choose at least one workload:", file=sys.stderr)
            for name in workload_names():
                print(f"  {name}", file=sys.stderr)
            return 2
        if not axes:
            print("pass at least one --axis FIELD=VALUES "
                  "(e.g. --axis num_sus=1,2,4,8,16)", file=sys.stderr)
            return 2

    datasets = {}
    for name in workloads:
        spec = get_workload(name)
        dataset = _dataset_for_args(spec, args)
        if dataset is not None:
            datasets[spec.name] = dataset

    from repro.perf.engine import default_workers

    report = run_sweep(workloads, axes, preset=args.preset,
                       datasets=datasets or None, scale=scale,
                       workers=args.jobs or default_workers())

    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())

    if args.smoke:
        from repro.workloads import run_workload

        problems = []
        if not report.ok:
            problems.append(f"{len(report.failures)} job failure(s)")
        base = run_workload(get_workload("triangle"), None, scale).metrics
        sweep = report.workloads[0]
        row = next((r for r in sweep.rows
                    if dict(r["values"])["num_sus"] == 4), None)
        if row is None:
            problems.append("base point (num_sus=4) missing from sweep")
        else:
            for metric in ("sc_cycles", "cpu_cycles", "speedup_vs_cpu"):
                if row[metric] != base[metric]:
                    problems.append(
                        f"{metric} diverged from the non-explore "
                        f"pipeline: {row[metric]!r} != {base[metric]!r}")
        if report.cache["misses"] > len(workloads):
            problems.append(
                f"{report.cache['misses']} recording(s) for "
                f"{len(workloads)} workload(s) — sweep re-recorded")
        if problems:
            print("explore --smoke FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print("explore --smoke ok: base point bit-identical, "
              f"{report.cache['misses']} recording(s), "
              f"cache hit rate {report.cache['hit_rate']:.1%}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import json

    from repro.perf.benchdiff import BenchSchemaError, diff_files

    try:
        diff = diff_files(args.old, args.new, tolerance=args.tolerance)
    except BenchSchemaError as exc:
        print(f"bench diff: schema error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_json(), indent=2))
    else:
        print(diff.render())
    return diff.exit_code


def build_parser() -> argparse.ArgumentParser:
    from repro.arch.config import sweepable_fields

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparseCore (ASPLOS 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset registries")

    run = sub.add_parser("run", help="run a GPM application")
    run.add_argument("app", choices=["T", "TS", "TC", "TT", "TM", "4C",
                                     "4CS", "5C", "5CS", "FSM"])
    run.add_argument("--graph", default="email_eu_core")
    run.add_argument("--scale", type=float, default=1.0)

    pattern = sub.add_parser("pattern", help="compile and run a pattern")
    pattern.add_argument("pattern",
                         help="triangle | three-chain | tailed-triangle | "
                              "k-clique | k-chain | k-star")
    pattern.add_argument("--graph", default="citeseer")
    pattern.add_argument("--scale", type=float, default=1.0)
    pattern.add_argument("--edge-induced", action="store_true")
    pattern.add_argument("--no-nested", action="store_true")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=["1", "2", "3", "4", "5"])

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=[str(i) for i in range(7, 17)])
    figure.add_argument("--scale", type=float, default=1.0)

    spmspm = sub.add_parser("spmspm", help="run one spmspm dataflow")
    spmspm.add_argument("--matrix", default="laser")
    spmspm.add_argument("--dataflow", default="gustavson",
                        choices=["inner", "outer", "gustavson"])

    difftest = sub.add_parser(
        "difftest", help="cross-backend differential conformance sweep")
    difftest.add_argument("--cases", type=int, default=200,
                          help="number of cases across all families")
    difftest.add_argument("--seed", type=int, default=0,
                          help="root seed of the sweep")
    difftest.add_argument("--smoke", action="store_true",
                          help="small sizes + fewer cases (CI budget)")
    difftest.add_argument("--family",
                          choices=["stream", "gpm", "tensor"],
                          help="restrict the sweep to one family")
    difftest.add_argument("--case-seed", type=int, default=None,
                          help="re-run one case from its printed seed")
    difftest.add_argument("--self-check", action="store_true",
                          help="verify the harness catches a planted bug")
    difftest.add_argument("--json", action="store_true",
                          help="emit the sweep report as JSON")

    profile = sub.add_parser(
        "profile", help="profile a workload with counters/trace/attribution")
    profile.add_argument("workload", nargs="*", default=[],
                         help="GPM patterns or tensor kernels "
                              "(run without arguments for the list; "
                              "several names fan out over --jobs)")
    profile.add_argument("--jobs", type=int, default=None,
                         help="worker processes for multi-workload runs "
                              "(default: $REPRO_WORKERS or 1)")
    profile.add_argument("--graph", default="citeseer",
                         help="graph dataset for GPM workloads")
    profile.add_argument("--matrix", default="laser",
                         help="matrix dataset for spmspm workloads")
    profile.add_argument("--tensor", default="Ch",
                         help="tensor dataset for ttv/ttm workloads")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="graph scale factor")
    profile.add_argument("--max-events", type=int, default=200_000,
                         help="tracer retention cap (overflow is counted)")
    profile.add_argument("--json", action="store_true",
                         help="emit the full profile as JSON")
    profile.add_argument("--trace", metavar="FILE",
                         help="write Chrome trace-event JSON (Perfetto)")
    profile.add_argument("--timeline", action="store_true",
                         help="print the plain-text event timeline")
    profile.add_argument("--smoke", action="store_true",
                         help="profile the CI pair (triangle + spmspm) "
                              "with attribution/schema checks enforced")

    cache = sub.add_parser(
        "cache", help="manage the persistent run cache")
    cache.add_argument("action", choices=["stats", "prewarm", "fsck",
                                          "clear"])
    cache.add_argument("--dir", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-sparsecore/runs)")
    cache.add_argument("--jobs", type=int, default=None,
                       help="worker processes for prewarm "
                            "(default: $REPRO_WORKERS or 1)")
    cache.add_argument("--scale", type=float, default=1.0,
                       help="figure-suite scale for prewarm")
    cache.add_argument("--smoke", action="store_true",
                       help="prewarm a small representative job set")
    cache.add_argument("--verbose", action="store_true",
                       help="list individual entries under stats")
    cache.add_argument("--json", action="store_true",
                       help="emit stats/fsck output as JSON")

    chaos = sub.add_parser(
        "chaos", help="fault-injection gate over the figure suite")
    chaos.add_argument("--smoke", action="store_true",
                       help="chaos-test the small smoke suite (CI)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed of the derived fault plan")
    chaos.add_argument("--scale", type=float, default=1.0,
                       help="figure-suite scale factor")
    chaos.add_argument("--jobs", type=int, default=2,
                       help="worker processes (>= 2 exercises the pool "
                            "crash/hang paths)")
    chaos.add_argument("--timeout", type=float, default=30.0,
                       help="per-job timeout under faults (the hang "
                            "fault must exceed it)")
    chaos.add_argument("--max-jobs", type=int, default=None,
                       help="trim the job list (faster local runs)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos report as JSON")

    workloads = sub.add_parser(
        "workloads", help="list the unified workload registry")
    workloads.add_argument("--list", action="store_true",
                           help="print bare workload names only")

    obs = sub.add_parser(
        "obs", help="aggregate or export the persistent run ledger")
    obs.add_argument("action", choices=["report", "trace"])
    obs.add_argument("out", nargs="?", default=None,
                     help="output file for trace (default "
                          "ledger_trace.json)")
    obs.add_argument("--dir", default=None,
                     help="ledger directory (default: $REPRO_LEDGER_DIR)")
    obs.add_argument("--json", action="store_true",
                     help="emit the aggregated report as JSON")
    obs.add_argument("--smoke", action="store_true",
                     help="CI gate: exit 1 if the ledger is empty or "
                          "malformed")
    obs.add_argument("--top", type=int, default=8,
                     help="rows in the slowest-jobs table")

    explore = sub.add_parser(
        "explore", help="design-space sweep over machine configurations")
    explore.add_argument("workload", nargs="*", default=[],
                         help="workloads to sweep (run without arguments "
                              "for the list)")
    explore.add_argument("--axis", action="append", default=[],
                         metavar="FIELD=VALUES",
                         help="one swept config field: num_sus=1,2,4,8,16 "
                              "| scache_bandwidth=2..64 (doubling) | "
                              "num_sus=2..8:2 (arithmetic); repeat for a "
                              "grid.  FIELD is one of the fields pricing "
                              "reads: " + ", ".join(sweepable_fields()))
    explore.add_argument("--preset", default="paper",
                         help="base machine preset (default: paper = "
                              "Table 2)")
    explore.add_argument("--scale", type=float, default=1.0,
                         help="graph scale factor")
    explore.add_argument("--jobs", type=int, default=None,
                         help="worker processes recording the traces the "
                              "cache lacks; pricing runs in-process "
                              "(default: $REPRO_WORKERS or 1)")
    explore.add_argument("--graph", default=None,
                         help="graph dataset for GPM workloads")
    explore.add_argument("--matrix", default=None,
                         help="matrix dataset for spmspm workloads")
    explore.add_argument("--tensor", default=None,
                         help="tensor dataset for ttv/ttm workloads")
    explore.add_argument("--json", action="store_true",
                         help="emit the sweep report as JSON")
    explore.add_argument("--smoke", action="store_true",
                         help="CI gate: 2-point sweep; the base point "
                              "must match the non-explore pipeline "
                              "bit-for-bit")

    bench = sub.add_parser(
        "bench", help="compare two benchmark reports for regressions")
    bench.add_argument("action", choices=["diff"])
    bench.add_argument("old", help="baseline report JSON")
    bench.add_argument("new", help="candidate report JSON")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       help="relative regression tolerance "
                            "(default 0.25 = 25%%)")
    bench.add_argument("--json", action="store_true",
                       help="emit the diff as JSON")
    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "run": _cmd_run,
    "pattern": _cmd_pattern,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "spmspm": _cmd_spmspm,
    "difftest": _cmd_difftest,
    "profile": _cmd_profile,
    "cache": _cmd_cache,
    "chaos": _cmd_chaos,
    "workloads": _cmd_workloads,
    "obs": _cmd_obs,
    "explore": _cmd_explore,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ConfigError, DatasetError

    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
