"""Output reference of the benchmark: digests of the figure-suite runs.

``reference.json`` holds, for every run of ``figure_suite_runs(0.2)``
(90 GPM and 37 tensor jobs), the SHA-256 digest of its canonical
metrics plus the few scalars the sweep oracle compares directly.  The
benchmark checks every run and every paper-preset sweep point against
it after timing.

Regenerate it (about three minutes, serial, nothing cached) with::

    python3 perfbench/reference.py

Only do so when a change is *meant* to alter the modelled outputs; a
benchmark run whose outputs differ from the stored digests counts as
failed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
GOLDEN = ROOT / "tests" / "data" / "golden_runs.json"
#: Working directory of every benchmark process (caches, span files);
#: inside the checkout, ignored by git.
WORKDIR = ROOT / ".perfbench"

#: Scale of the figure suite the reference (and every draw) uses.
SUITE_SCALE = 0.2


def canonical(x):
    """JSON-ready form of a metrics dict: lists for arrays, str keys."""
    import numpy as np

    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def digest(metrics: dict) -> str:
    """SHA-256 of the canonical metrics (sorted keys, exact floats)."""
    blob = json.dumps(canonical(metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_key(workload: str, dataset: str, scale: float) -> str:
    """Reference key of one run, e.g. ``triangle/E@0.11``."""
    return f"{workload}/{dataset}@{scale}"


def entry(metrics: dict) -> dict:
    """The reference record of one run's metrics."""
    return {"digest": digest(metrics),
            "num_ops": int(metrics["num_ops"]),
            "cpu_cycles": float(metrics["cpu_cycles"]),
            "sc_cycles": float(metrics["sc_cycles"]),
            "speedup_vs_cpu": float(metrics["speedup_vs_cpu"])}


def load_reference() -> dict:
    """``{run key: entry}`` for every figure-suite run."""
    return json.loads(REFERENCE.read_text())["runs"]


def golden_disagreements(reference: dict) -> list[str]:
    """Runs shared with ``tests/data/golden_runs.json`` that disagree.

    The golden file pins one run per family; two of them (the
    ``spmspm-inner``/CA and ``ttv``/Ch jobs) are also figure-suite jobs
    at the reference scale.  The file is read, never written.
    """
    golden = json.loads(GOLDEN.read_text())
    shared = []
    for item in golden.values():
        key = run_key(item["workload"], item["dataset"],
                      item.get("scale", 1.0))
        if key in reference:
            shared.append((key, item["metrics"]))
    bad = [key for key, metrics in shared
           if digest(metrics) != reference[key]["digest"]]
    if len(shared) != 2:
        bad.append(f"expected 2 runs shared with {GOLDEN.name}, "
                   f"found {len(shared)}")
    return bad


def generate() -> dict:
    """Record and price every figure-suite run cold, serially."""
    from repro.perf.cache import RunCache
    from repro.workloads import figure_suite_runs, run_workload

    runs = {}
    for spec, dataset, scale in figure_suite_runs(SUITE_SCALE):
        WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            result = run_workload(spec, dataset, scale, cache=RunCache(tmp))
        key = run_key(spec.name, dataset, scale)
        runs[key] = {"workload": spec.name, "family": spec.family,
                     "app": spec.app, "dataset": dataset, "scale": scale,
                     **entry(result.metrics)}
        print(key, runs[key]["num_ops"], flush=True)
    return {"suite_scale": SUITE_SCALE, "runs": runs}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    data = generate()
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    bad = golden_disagreements(data["runs"])
    for key in bad:
        print(f"golden disagreement: {key}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
