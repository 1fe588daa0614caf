"""Check every figure-suite run against the benchmark's reference digests.

Records each run of ``figure_suite_runs(0.2)`` cold, serially, into a
temporary run cache, prices it under the paper machine pair, and
compares the SHA-256 digest of its metrics with the one stored in
``perfbench/reference.json`` (read, never written).  Prints every
mismatch and exits 1 on any, or when the suite does not hold the 127
runs the reference was made from.  Takes about half a minute::

    python benchmarks/check_reference.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
from repro.perf.cache import RunCache  # noqa: E402
from repro.workloads import figure_suite_runs, run_workload  # noqa: E402

#: Runs of ``figure_suite_runs(reference.SUITE_SCALE)``.
EXPECTED_RUNS = 127


def main() -> int:
    stored = reference.load_reference()
    runs = figure_suite_runs(reference.SUITE_SCALE)
    t0 = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(tmp)
        for spec, dataset, scale in runs:
            key = reference.run_key(spec.name, dataset, scale)
            got = reference.digest(
                run_workload(spec, dataset, scale, cache=cache).metrics)
            want = stored.get(key, {}).get("digest")
            if got != want:
                bad += 1
                print(f"mismatch: {key}: digest {got[:16]}, reference "
                      f"{want[:16] if want else 'missing'}")
    ok = len(runs) - bad
    print(f"{ok}/{len(runs)} runs match perfbench/reference.json "
          f"({time.perf_counter() - t0:.1f} s)")
    if len(runs) != EXPECTED_RUNS:
        print(f"expected {EXPECTED_RUNS} figure-suite runs, "
              f"found {len(runs)}")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
