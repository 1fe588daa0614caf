"""Harness wall-clock baseline: engine + run-cache throughput.

Runs the figure-suite job list three ways — cold serial, cold parallel,
and warm (persistent cache populated) — asserts all three produce
bit-identical metrics, and records stream-ops/sec and runs/sec for each
mode in ``BENCH_wallclock.json`` at the repository root so harness
performance can be diffed across commits.

A fourth cold-serial phase runs with the run ledger enabled
(``$REPRO_LEDGER_DIR``): its metrics must stay bit-identical to the
un-instrumented phases, and the ledger's attributable overhead — the
directly measured per-event emission cost times the number of events
the phase produced — must stay under 2% of the cold-serial wall time.
(Whole-phase wall deltas are reported but do not gate: back-to-back
ledger-off phases on a shared machine routinely differ by 20%, so a
single-sample 2% wall gate would only measure scheduler noise.)  The
first three phases always run with the ledger disabled, whatever the
ambient environment.

Modelled *cycles* never change between modes (that is asserted); what
this benchmark tracks is how fast the pure-Python harness itself
produces them.

Run directly (CI uses ``--smoke``)::

    python benchmarks/bench_wallclock.py [--smoke] [--jobs N] [--scale S]

or via ``pytest benchmarks/bench_wallclock.py`` for the smoke variant.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Ratios the full benchmark asserts (ISSUE 4 acceptance criteria).
WARM_MIN_SPEEDUP = 3.0
PARALLEL_MIN_SPEEDUP = 1.5
#: Ledger emission cost attributable to a cold serial run (per-event
#: emit time x events emitted) must stay under this fraction of the
#: run's wall time (ISSUE 8 acceptance criteria).
LEDGER_MAX_OVERHEAD = 0.02
#: Events timed by the emission microbenchmark.
LEDGER_EMIT_BENCH_N = 2_000


def _canon(x):
    """Metrics dicts with numpy leaves -> comparable plain structures."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def _timed_run(jobs, *, workers: int, cache_dir) -> tuple[float, dict]:
    from repro.perf.engine import run_jobs

    start = time.perf_counter()
    results = run_jobs(jobs, workers=workers, cache_dir=cache_dir)
    return time.perf_counter() - start, results


def run_phases(*, smoke: bool, workers: int, scale: float) -> dict:
    """Cold-serial / cold-parallel / warm-serial over one job list,
    then cold-serial again with the run ledger on."""
    from repro.obs.ledger import ENV_DIR, read_ledger, reset_default_ledger
    from repro.perf.engine import figure_suite_jobs, job_key

    jobs = figure_suite_jobs(scale, smoke=smoke)
    # The baseline phases must measure the *disabled* ledger whatever
    # the ambient environment says; the ledger phase then reuses the
    # ambient directory when one is set (CI reads it right after) or a
    # throwaway one otherwise.
    ambient = os.environ.pop(ENV_DIR, None)
    reset_default_ledger()
    try:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-cache-") as tmp:
            root = pathlib.Path(tmp)
            cold_serial_s, serial = _timed_run(
                jobs, workers=1, cache_dir=root / "serial")
            cold_parallel_s, parallel = _timed_run(
                jobs, workers=workers, cache_dir=root / "parallel")
            # Warm: the serial cache dir already holds every trace.
            warm_serial_s, warm = _timed_run(
                jobs, workers=1, cache_dir=root / "serial")

            ledger_dir = ambient or str(root / "ledger")
            os.environ[ENV_DIR] = ledger_dir
            reset_default_ledger()
            try:
                cold_ledger_s, ledgered = _timed_run(
                    jobs, workers=1, cache_dir=root / "ledger-cache")
            finally:
                os.environ.pop(ENV_DIR, None)
                reset_default_ledger()
            scan = read_ledger(ledger_dir)

            # Attributable overhead: time raw event emission into a
            # scratch ledger (kept out of ledger_dir so the obs report
            # over $REPRO_LEDGER_DIR only sees real run events).
            from repro.obs.ledger import RunLedger

            bench_ledger = RunLedger(root / "emit-bench")
            start = time.perf_counter()
            for i in range(LEDGER_EMIT_BENCH_N):
                bench_ledger.emit("bench.emit", "span", dur=0.0,
                                  workload="emit-bench", seq=i)
            per_event_s = ((time.perf_counter() - start)
                           / LEDGER_EMIT_BENCH_N)
            bench_ledger.close()
    finally:
        if ambient is not None:
            os.environ[ENV_DIR] = ambient
        reset_default_ledger()

    reference = _canon(serial)
    phases_identical = reference == _canon(parallel) == _canon(warm)
    if not phases_identical:
        raise AssertionError(
            "metrics differ between serial / parallel / warm runs")
    ledger_identical = reference == _canon(ledgered)

    stream_ops = sum(m["num_ops"] for m in serial.values())
    n_runs = len(serial)
    report = {
        "schema_version": 4,
        "mode": "smoke" if smoke else "full",
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {
            "workers": workers,
            "scale": scale,
            "runs": n_runs,
            "stream_ops": stream_ops,
            "jobs": sorted(job_key(j) for j in jobs),
        },
        "timings_s": {
            "cold_serial": round(cold_serial_s, 3),
            "cold_parallel": round(cold_parallel_s, 3),
            "warm_serial": round(warm_serial_s, 3),
        },
        "throughput": {
            "stream_ops_per_s_cold": round(stream_ops / cold_serial_s, 1),
            "stream_ops_per_s_warm": round(stream_ops / warm_serial_s, 1),
            "runs_per_s_cold": round(n_runs / cold_serial_s, 3),
            "runs_per_s_warm": round(n_runs / warm_serial_s, 3),
        },
        "speedups": {
            "warm_over_cold_serial": round(cold_serial_s / warm_serial_s, 2),
            "parallel_over_cold_serial":
                round(cold_serial_s / cold_parallel_s, 2),
        },
        "ledger": {
            "cold_serial_ledger_s": round(cold_ledger_s, 3),
            "wall_ratio_vs_cold_serial":
                round(cold_ledger_s / cold_serial_s, 3)
                if cold_serial_s else None,
            "events": len(scan.events),
            "files": scan.files,
            "malformed": scan.malformed,
            "emit_us_per_event": round(per_event_s * 1e6, 2),
            "attributable_overhead_s":
                round(per_event_s * len(scan.events), 6),
            "attributable_overhead_ratio":
                round(per_event_s * len(scan.events) / cold_serial_s, 6)
                if cold_serial_s else None,
            "bit_identical": ledger_identical,
            "dir_persisted": ambient is not None,
        },
        "bit_identical": phases_identical and ledger_identical,
    }
    return report


def check_ratios(report: dict) -> list[str]:
    """Acceptance-ratio failures (empty when everything holds).

    The parallel ratio is only meaningful with real cores to spread
    over — on a single-CPU machine process fan-out adds overhead by
    construction, so that check is gated on ``cpu_count``.
    """
    failures = []
    speedups = report["speedups"]
    if report["mode"] == "full" \
            and speedups["warm_over_cold_serial"] < WARM_MIN_SPEEDUP:
        failures.append(
            f"warm run only {speedups['warm_over_cold_serial']}x faster "
            f"than cold serial (need >= {WARM_MIN_SPEEDUP}x)")
    if report["machine"]["cpu_count"] >= 2 \
            and speedups["parallel_over_cold_serial"] < PARALLEL_MIN_SPEEDUP:
        failures.append(
            f"parallel run only {speedups['parallel_over_cold_serial']}x "
            f"faster than cold serial on "
            f"{report['machine']['cpu_count']} CPUs "
            f"(need >= {PARALLEL_MIN_SPEEDUP}x)")
    ledger = report.get("ledger")
    if ledger:
        if not ledger["bit_identical"]:
            failures.append(
                "metrics differ between ledger-on and ledger-off runs")
        if ledger["events"] == 0:
            failures.append("ledger-on run left an empty ledger")
        if ledger["malformed"]:
            failures.append(
                f"{ledger['malformed']} malformed ledger line(s)")
        ratio = ledger["attributable_overhead_ratio"]
        if ratio is not None and ratio > LEDGER_MAX_OVERHEAD:
            failures.append(
                f"ledger overhead: {ledger['events']} event(s) x "
                f"{ledger['emit_us_per_event']}us/event = "
                f"{ledger['attributable_overhead_s']}s attributable, "
                f"{ratio:.2%} of cold serial "
                f"(budget {LEDGER_MAX_OVERHEAD:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job list; bit-identity checks only")
    parser.add_argument("--jobs", type=int,
                        default=min(4, max(2, os.cpu_count() or 1)),
                        help="workers for the parallel phase")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="figure-suite scale factor")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here instead of "
                             "BENCH_wallclock.json (smoke mode only "
                             "writes when --out is given)")
    args = parser.parse_args(argv)

    report = run_phases(smoke=args.smoke, workers=args.jobs,
                        scale=args.scale)
    print(json.dumps(report, indent=2))

    failures = check_ratios(report)
    for failure in failures:
        print(f"RATIO CHECK FAILED: {failure}", file=sys.stderr)

    out = pathlib.Path(args.out) if args.out \
        else None if args.smoke else REPO_ROOT / "BENCH_wallclock.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if not args.smoke:
        try:
            from conftest import write_result

            rows = [{"phase": k, "seconds": v}
                    for k, v in report["timings_s"].items()]
            from repro.eval.reporting import render

            write_result("wallclock", render(rows, "harness wall-clock"),
                         rows)
        except ImportError:
            pass
    return 1 if failures else 0


def test_wallclock_smoke(once):
    """Pytest entry: smoke phases must agree bit-exactly."""
    report = once(lambda: run_phases(smoke=True, workers=2, scale=1.0))
    assert report["bit_identical"]
    assert report["config"]["runs"] >= 4
    assert report["timings_s"]["warm_serial"] > 0
    ledger = report["ledger"]
    assert ledger["bit_identical"], \
        "metrics must not change with the run ledger enabled"
    assert ledger["events"] > 0 and ledger["malformed"] == 0
    assert ledger["attributable_overhead_ratio"] <= LEDGER_MAX_OVERHEAD, \
        "ledger overhead budget (2% of cold serial) exceeded"


if __name__ == "__main__":
    sys.exit(main())
