"""Benchmark of the SparseCore reproduction: cold recording and warm sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload gpm-cold --seed 1 --seconds 15 \\
        --trace 0

Workloads (see ``BENCHMARK.json``): ``gpm-cold`` and ``tensor-cold``
record, cache and price a seeded draw of figure-suite jobs; ``sweep-warm``
re-prices cached traces over a seeded design-space grid.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` repeats the pass with every
layer's entry points wrapped and reports the per-layer metrics instead.
Every output is checked (reference digests, sweep oracle, and for
``--trace 1`` bit-identity with the untraced pass).  The last line of
standard output is the JSON result; details go to ``.perfbench/``.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s",
                    "points_per_s": "points/s", "peak_rss_mb": "MiB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=layers.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import every package the pass reaches (set-up, not pass, time)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {ROOT / 'src' / 'repro'} not found; run "
                         f"from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro.explore  # noqa: F401
    import repro.gpm.apps  # noqa: F401
    import repro.perf.cache  # noqa: F401
    import repro.perf.engine  # noqa: F401
    import repro.tensorops.taco  # noqa: F401
    import repro.workloads  # noqa: F401


def _traced(workload, untraced, result_errors):
    """Set up and run the pass again under the tracer."""
    from reference import WORKDIR
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        workload.setup()
        tracer.begin_pass()
        traced = workload.run_pass(rounds=untraced.rounds)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    workload.check(traced)
    result_errors.extend(traced.errors)
    if traced.outputs != untraced.outputs:
        result_errors.append("traced outputs differ from untraced outputs")
    for group in layers.missing_calls(tracer.entry_calls(), workload.name):
        result_errors.append(f"traced run recorded no call of {group}")
    metrics = layers.fold(
        tracer, traced_wall=traced.wall_s, untraced_wall=untraced.wall_s,
        model=traced.model,
        failed_ratio=traced.failed / max(1, traced.attempted))
    tracer.write(WORKDIR / f"spans-{workload.name}.npz")
    return traced, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    _import_program()

    from reference import WORKDIR, golden_disagreements, load_reference
    from workloads import WORKLOADS

    reference = load_reference()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, reference)
    one_time = perf_counter() - T0
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    try:
        result = workload.run_pass()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check(result)
        errors = list(result.errors)
        errors += [f"reference disagrees with the golden run {key}"
                   for key in golden_disagreements(reference)]
        attempted, failed = result.attempted, result.failed
        if args.trace:
            traced, values = _traced(workload, result, errors)
            attempted += traced.attempted
            failed += traced.failed
            units = {m.name: m.unit for m in layers.PER_LAYER}
        else:
            values = {
                "setup_s": one_time + statistics.median(setups),
                "ops_per_s": result.ops / result.wall_s,
                "points_per_s": result.points / result.wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    finally:
        workload.cleanup()

    details = {**workload.describe(), "workload": workload.name,
               "seconds": args.seconds, "trace": args.trace,
               "rounds": result.rounds, "pass_s": result.wall_s,
               "setup_repeats_s": setups, "model": result.model,
               "points": result.points, "attempted": attempted,
               "failed": failed, "errors": errors, "metrics": values}
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
               f".json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{workload.name} seed {args.seed}: {len(workload.jobs)} job(s) "
          f"x {result.rounds} round(s) in {result.wall_s:.2f}s; "
          f"model.stream_ops {result.model['stream_ops']}, "
          f"{result.points} point(s) priced")
    print("drawn: " + " ".join(job.key for job in workload.jobs))
    if getattr(workload, "axes", None):
        print("grid: " + " ".join(workload.axes))
    for name, value in values.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    print(f"failed_ratio {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted})")
    for error in errors[:20]:
        print(f"ERROR {error}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
