"""The benchmark's own checks.  Run from the repository root::

    python3 perfbench/selfcheck.py

* ``golden`` — the output reference agrees with
  ``tests/data/golden_runs.json`` on the two runs they share;
* ``schema`` — ``BENCHMARK.json`` lists exactly the metrics the code
  emits, with the same units and directions;
* ``seeds`` — two seeds draw different jobs with the same count per app
  or kernel, and grids of the same shape that hold the paper point;
* ``outputs`` — the output checks can fail: a pass priced under a model
  that is off by one cycle is counted failed on every run and point;
* ``gate`` — the gate can fail and blames the right layer: a fixed delay
  added (from here, not in ``src/``) to ``TransferModel.load_stream`` on
  gpm-cold and to ``RunCache.get`` on sweep-warm drops the workload's
  throughput by more than the metric's bound, and the traced run puts
  the added time in that layer's self time only.

Exits 1 if any check fails.  Takes about three minutes.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter
from time import perf_counter

import run

run._import_program()

import draws  # noqa: E402
import layers  # noqa: E402
from reference import ROOT, golden_disagreements, load_reference  # noqa: E402
from tracing import _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = load_reference()

#: (workload, delayed entry point, layer blamed, delay per call, metric)
GATE_CASES = (
    (layers.GPM, "repro.arch.transfer:TransferModel.load_stream",
     "arch.transfer.load_stream", 50e-6, "ops_per_s"),
    (layers.SWEEP, "repro.perf.cache:RunCache.get", "perf.cache.get",
     10e-3, "points_per_s"),
)


@contextlib.contextmanager
def patched(target: str, make):
    """Replace a class attribute by ``make(original)`` for a while."""
    owner, name, original = _resolve(target)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _delay(seconds):
    def make(original):
        def delayed(*args, **kwargs):
            end = perf_counter() + seconds
            while perf_counter() < end:
                pass
            return original(*args, **kwargs)
        return delayed
    return make


def check_golden() -> list[str]:
    return golden_disagreements(REFERENCE)


def check_schema() -> list[str]:
    problems = []
    want = {m.name: (m.unit, m.better) for m in layers.PER_LAYER}
    got = {m["name"]: (m["unit"], m["better"])
           for m in BENCHMARK["per_layer"]}
    if want != got:
        problems.append(f"per_layer differs from layers.PER_LAYER: "
                        f"{sorted(set(want.items()) ^ set(got.items()))}")
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end {e2e} != {run.END_TO_END_UNITS}")
    if sorted(w["name"] for w in BENCHMARK["workloads"]) \
            != sorted(WORKLOADS):
        problems.append("workloads differ from the code's")
    return problems


def check_seeds(a: int = 1, b: int = 2) -> list[str]:
    problems = []

    def strata(jobs, key):
        return Counter(key(j) for j in jobs)

    for name, draw, key in (
            ("gpm-cold", lambda s: draws.gpm_draw(s, 15), lambda j: j.app),
            ("tensor-cold", lambda s: draws.tensor_draw(s, REFERENCE),
             lambda j: j.app)):
        one, two = draw(a), draw(b)
        if [j.key for j in one] == [j.key for j in two]:
            problems.append(f"{name}: seeds {a} and {b} draw the same jobs")
        if strata(one, key) != strata(two, key):
            problems.append(f"{name}: strata differ between seeds")
    (t1, g1), (t2, g2) = (draws.sweep_draw(s, REFERENCE) for s in (a, b))
    if ([j.key for j in t1], g1) == ([j.key for j in t2], g2):
        problems.append("sweep-warm: seeds draw the same traces and grid")
    if [len(g.split(",")) for g in g1] != [len(g.split(",")) for g in g2]:
        problems.append("sweep-warm: grid shapes differ between seeds")
    from repro.arch.config import SparseCoreConfig

    default = SparseCoreConfig()
    for grid in (g1, g2):
        for axis in grid:
            field, values = axis.split("=")
            if str(getattr(default, field)) not in values.split(","):
                problems.append(f"sweep-warm: {axis} misses the default")
    return problems


def check_outputs() -> list[str]:
    """A model off by one cycle must fail every checked output."""
    def off_by_one(original):
        def cost(self, trace, *args, **kwargs):
            report = original(self, trace, *args, **kwargs)
            report.total_cycles += 1
            return report
        return cost

    problems = []
    for name, target in ((layers.GPM, "repro.arch.cpu:CpuModel.cost"),
                         (layers.SWEEP,
                          "repro.arch.sparsecore:SparseCoreModel.cost")):
        workload = WORKLOADS[name](3, 3, REFERENCE)
        workload.setup()
        try:
            with patched(target, off_by_one):
                result = workload.run_pass(rounds=1)
            workload.check(result)
        finally:
            workload.cleanup()
        expected = result.attempted - (len(workload.jobs)
                                       if name == layers.SWEEP else 0)
        if result.failed < expected or not expected:
            problems.append(f"{name}: {result.failed} of {result.attempted} "
                            f"outputs failed under a wrong model")
    return problems


def check_gate() -> list[str]:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    problems = []
    for name, target, layer, delay, metric in GATE_CASES:
        workload = WORKLOADS[name](4, 4, REFERENCE)
        errors: list[str] = []
        try:
            workload.setup()
            base = workload.run_pass(rounds=1)
            _traced, base_layers = run._traced(workload, base, errors)
            with patched(target, _delay(delay)):
                workload.setup()
                slow = workload.run_pass(rounds=1)
                _traced, slow_layers = run._traced(workload, slow, errors)
        finally:
            workload.cleanup()
        problems += [f"{name}: {e}" for e in errors]
        work = "ops" if metric == "ops_per_s" else "points"
        before = getattr(base, work) / base.wall_s
        after = getattr(slow, work) / slow.wall_s
        drop = 1 - after / before
        print(f"  {name}: +{delay * 1e6:.0f}us per {target.split(':')[1]} "
              f"call: {metric} {before:.6g} -> {after:.6g} "
              f"(-{drop:.1%}, bound {bounds[metric]:.0%})")
        if drop <= bounds[metric]:
            problems.append(f"{name}: {metric} dropped {drop:.1%}, not more "
                            f"than its bound {bounds[metric]:.0%}")
        calls = slow_layers[f"{layer}.calls"]
        added = calls * delay
        before_self = layers.layer_self_seconds(base_layers)
        after_self = layers.layer_self_seconds(slow_layers)
        for key in before_self:
            delta = after_self[key] - before_self[key]
            if key == layer and delta < 0.8 * added:
                problems.append(f"{name}: {key} self time grew {delta:.3f}s"
                                f" of the {added:.3f}s added")
            elif key != layer and abs(delta) > 0.2 * added:
                problems.append(f"{name}: {key} self time moved "
                                f"{delta:+.3f}s (added {added:.3f}s "
                                f"to {layer})")
        print(f"  {name}: {layer} self time "
              f"+{after_self[layer] - before_self[layer]:.3f}s "
              f"for {added:.3f}s added over {calls} calls")
    return problems


CHECKS = {"golden": check_golden, "schema": check_schema,
          "seeds": check_seeds, "outputs": check_outputs,
          "gate": check_gate}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(CHECKS)
    failed = False
    for name in names:
        start = perf_counter()
        problems = CHECKS[name]()
        status = "ok" if not problems else "FAILED"
        print(f"{name}: {status} ({perf_counter() - start:.1f}s)")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
