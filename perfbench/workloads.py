"""The three benchmark workloads: set-up, timed pass, output checks.

Each workload runs serially in this process through the entry points
users hit — ``repro.workloads.run_workload`` with a ``RunCache`` for the
cold ones (``repro run`` / ``repro figure``), ``repro.explore.run_sweep``
for the warm one (``repro explore``) — with the library defaults: no
backend, no worker pool, no ``REPRO_*`` knob.

A pass runs whole rounds of the seed's draw while the next round is
expected to fit in ``seconds`` (at least one round), so every round
measures identical work and throughput does not depend on how many
rounds fit.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import draws
import layers
from reference import WORKDIR, digest


@dataclass
class PassResult:
    """What one timed pass did and produced."""

    wall_s: float = 0.0
    rounds: int = 0
    #: stream ops handled: recorded (cold) or re-priced (sweep)
    ops: int = 0
    #: priced (workload, design point) pairs
    points: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: per round, the outputs in draw order (digests or priced rows)
    outputs: list[list] = field(default_factory=list)
    #: exact simulated totals of one round
    model: dict = field(default_factory=dict)


def _fresh_dir(prefix: str) -> str:
    WORKDIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORKDIR)


def _clear_dataset_caches() -> None:
    from repro.graph.datasets import load_graph
    from repro.tensor.datasets import load_matrix, load_tensor

    for loader in (load_graph, load_matrix, load_tensor):
        loader.cache_clear()


def _load_dataset(job) -> None:
    """Generate one job's dataset the way the run pipeline asks for it
    (same arguments, so the loaders' LRU serves the timed pass)."""
    import repro.graph.datasets as graphs
    import repro.tensor.datasets as tensors
    from repro.workloads import get_workload

    spec = get_workload(job.workload)
    key = spec.resolve_dataset(job.dataset).key
    if spec.dataset_kind == "graph":
        graphs.load_graph(key, job.scale, num_labels=spec.num_labels)
    elif spec.dataset_kind == "matrix":
        tensors.load_matrix(key)
    else:
        tensors.load_tensor(key)


class Workload:
    """Shared base: rounds, timing, and the set-up contract."""

    name = ""

    def __init__(self, seed: int, seconds: float, reference: dict):
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.jobs: list[draws.Job] = []

    def setup(self) -> None:
        """Build every input of the pass from nothing (repeatable)."""
        raise NotImplementedError

    def run_round(self, result: PassResult) -> list:
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        """Compare every output with its reference or oracle."""
        raise NotImplementedError

    def after_round(self) -> None:
        """Untimed clean-up after each round."""

    def cleanup(self) -> None:
        """Remove what set-up left on disk."""

    def run_pass(self, rounds: int | None = None) -> PassResult:
        """Whole rounds until ``seconds`` (or exactly ``rounds``)."""
        result = PassResult()
        while True:
            start = perf_counter()
            outputs = self.run_round(result)
            took = perf_counter() - start
            self.after_round()
            result.wall_s += took
            result.rounds += 1
            result.outputs.append(outputs)
            if result.rounds == rounds or (
                    rounds is None and result.wall_s + took > self.seconds):
                return result

    def describe(self) -> dict:
        return {"seed": self.seed,
                "jobs": [job.key for job in self.jobs]}


class ColdWorkload(Workload):
    """Record, cache and price each drawn job once per round."""

    def setup(self) -> None:
        _clear_dataset_caches()
        for job in self.jobs:
            _load_dataset(job)

    def run_round(self, result: PassResult) -> list:
        import repro.workloads as workloads
        from repro.perf.cache import RunCache

        self._root = _fresh_dir("cold-")
        cache = RunCache(self._root)
        outputs = []
        model = {"stream_ops": 0, "cpu_cycles": 0.0, "sc_cycles": 0.0}
        for job in self.jobs:
            result.attempted += 1
            try:
                run = workloads.run_workload(job.workload, job.dataset,
                                             job.scale, cache=cache)
            except Exception as exc:  # one failed run, not the pass
                result.errors.append(
                    f"{job.key}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            metrics = run.metrics
            result.ops += int(metrics["num_ops"])
            result.points += 1
            model["stream_ops"] += int(metrics["num_ops"])
            model["cpu_cycles"] += metrics["cpu_cycles"]
            model["sc_cycles"] += metrics["sc_cycles"]
            outputs.append(digest(metrics))
        result.model = model
        return outputs

    def after_round(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)

    def check(self, result: PassResult) -> None:
        for outputs in result.outputs:
            for job, out in zip(self.jobs, outputs):
                want = self.reference.get(job.key, {}).get("digest")
                if out is None:
                    result.failed += 1
                elif out != want:
                    result.failed += 1
                    result.errors.append(
                        f"{job.key}: metrics differ from the reference")


class GpmCold(ColdWorkload):
    name = layers.GPM

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.jobs = draws.gpm_draw(seed, seconds)


class TensorCold(ColdWorkload):
    name = layers.TENSOR

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.jobs = draws.tensor_draw(seed, reference)


class SweepWarm(Workload):
    """``run_sweep`` over a seeded grid, every trace already cached."""

    name = layers.SWEEP

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.jobs, self.axes = draws.sweep_draw(seed, reference)
        self.root: str | None = None
        #: paper-preset metrics of each trace, recorded in set-up
        self.base: dict[str, dict] = {}
        self.setup_failed: list[str] = []

    def describe(self) -> dict:
        return {**super().describe(), "axes": self.axes}

    def setup(self) -> None:
        import repro.workloads as workloads
        from repro.perf.cache import RunCache

        _clear_dataset_caches()
        self.cleanup()
        self.root = _fresh_dir("sweep-")
        cache = RunCache(self.root)
        self.base, self.setup_failed = {}, []
        for job in self.jobs:
            _load_dataset(job)
            run = workloads.run_workload(job.workload, job.dataset,
                                         job.scale, cache=cache)
            self.base[job.key] = run.metrics
            if digest(run.metrics) != self.reference[job.key]["digest"]:
                self.setup_failed.append(job.key)

    def cleanup(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def run_round(self, result: PassResult) -> list:
        import repro.explore as explore

        outputs = []
        model = {"stream_ops": 0, "cpu_cycles": 0.0, "sc_cycles": 0.0}
        for job in self.jobs:
            num_ops = int(self.base[job.key]["num_ops"])
            model["stream_ops"] += num_ops
            try:
                report = explore.run_sweep(
                    [job.workload], self.axes,
                    datasets={job.workload: job.dataset}, scale=job.scale,
                    cache_dir=self.root)
            except Exception as exc:
                result.errors.append(f"{job.key}: {type(exc).__name__}: "
                                     f"{exc}")
                outputs.append(None)
                continue
            rows = report.workloads[0].rows if report.workloads else []
            result.points += len(rows)
            result.ops += num_ops * len(rows)
            for failure in report.failures:
                result.errors.append(f"{job.key}: {failure['key']}: "
                                     f"{failure['error']}")
            model["cpu_cycles"] += sum(r["cpu_cycles"] for r in rows)
            model["sc_cycles"] += sum(r["sc_cycles"] for r in rows)
            outputs.append([(r["point"], r["sc_cycles"], r["cpu_cycles"],
                             r["speedup_vs_cpu"]) for r in rows])
        result.model = model
        return outputs

    def _expected(self) -> dict[str, dict | None]:
        """The sweep oracle, per trace: ``{point: {column: [values]}}``.

        Every point must equal a direct ``CpuModel`` /
        ``SparseCoreModel(config).cost`` of the trace read back from the
        sweep's cache; a point that varies only ``num_sus`` or
        ``scache_bandwidth`` must also equal the paper-preset run's
        Figure 12/13 table entry, and the paper-preset point the output
        reference.
        """
        from repro.arch.config import SparseCoreConfig, get_preset
        from repro.arch.cpu import CpuModel
        from repro.arch.sparsecore import SparseCoreModel
        from repro.explore.axes import grid_points, parse_axes
        from repro.perf.cache import RunCache
        from repro.workloads import get_workload

        tables = {"num_sus": "su_sweep", "scache_bandwidth": "bw_sweep"}
        columns = ("sc_cycles", "cpu_cycles", "speedup_vs_cpu")
        points = grid_points(parse_axes(self.axes), get_preset("paper"))
        default = SparseCoreConfig()
        cache = RunCache(self.root)
        stored = {(m.get("workload"), m.get("dataset"), m.get("scale")):
                  m["key"] for m in cache.entries()}
        expected: dict[str, dict | None] = {}
        for job in self.jobs:
            dataset = get_workload(job.workload) \
                .resolve_dataset(job.dataset).key
            hit = cache.get(stored.get((job.workload, dataset, job.scale),
                                       ""))
            if hit is None:
                expected[job.key] = None
                continue
            base, ref = self.base[job.key], self.reference[job.key]
            want = {}
            for point in points:
                values = dict(point.values)
                moved = [f for f, v in values.items()
                         if v != getattr(default, f)]
                cols = {
                    "sc_cycles": [SparseCoreModel(point.config.sparsecore)
                                  .cost(hit.trace).total_cycles],
                    "cpu_cycles": [CpuModel(point.config.cpu)
                                   .cost(hit.trace).total_cycles],
                    "speedup_vs_cpu": [],
                }
                if len(moved) == 1 and tables.get(moved[0]) in base:
                    cols["sc_cycles"].append(
                        base[tables[moved[0]]][values[moved[0]]])
                if not moved:
                    for column in columns:
                        cols[column].append(ref[column])
                want[point.index] = cols
            expected[job.key] = want
        return expected

    def check(self, result: PassResult) -> None:
        result.attempted += len(self.jobs)
        result.failed += len(self.setup_failed)
        for key in self.setup_failed:
            result.errors.append(f"{key}: set-up metrics differ from the "
                                 f"reference")
        expected = self._expected()
        columns = ("sc_cycles", "cpu_cycles", "speedup_vs_cpu")
        for outputs in result.outputs:
            for job, rows in zip(self.jobs, outputs):
                want = expected.get(job.key)
                n = len(want) if want is not None else 0
                result.attempted += n
                if rows is None or want is None:
                    result.failed += n
                    continue
                got = {r[0]: dict(zip(columns, r[1:])) for r in rows}
                for index, cols in want.items():
                    row = got.get(index)
                    if row is None or any(row[c] != v for c, values
                                          in cols.items() for v in values):
                        result.failed += 1
                        result.errors.append(
                            f"{job.key}: point {index} differs from the "
                            f"oracle")


WORKLOADS = {cls.name: cls for cls in (GpmCold, TensorCold, SweepWarm)}
