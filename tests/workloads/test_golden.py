"""Golden drift checks for the unified run pipeline.

The fixtures under tests/data/ were captured from the pre-refactor
per-layer code paths; these tests pin the registry-driven pipeline to
those outputs bit-for-bit.  Both sides go through a JSON round-trip so
numpy arrays become lists and integer dict keys (the sweep tables)
become strings, exactly as the goldens were serialized.

The run and profile goldens are pinned under three recorders: ``None``
leaves :class:`~repro.machine.context.Machine` recording into its own
:class:`~repro.record.columnar.ColumnarTrace`; ``"rows"`` swaps in the
per-op reference, which analyses each op on the spot with
:func:`~repro.streams.runstats.analyze_pair` and keeps it as one row of
an :class:`~repro.arch.trace.Trace`; ``"columnar"`` swaps in a
``ColumnarTrace`` that compacts every 64 elements, so a run is analysed
in hundreds to thousands of batches.  A deviation under any of them is
a recording bug, not drift.

``golden_profile_events.json`` pins the profile *event stream* — count,
drops and a SHA-256 of every event's name, category, phase, timestamp,
duration, lane and args — at the default tracer cap and at one that
drops events, on six profiled workloads and on two small inner-product
and TTM kernels run on a probed machine (the ``vinter_sweep`` path).
The GPM runs cover ``S_NESTINTER`` (``triangle``) and the counting leaf
levels: a 1-step subtraction (``three-chain``), a 2-step intersection
(``4clique-flat``) and a 2-step subtraction (``tailed-triangle``).
It was captured with every op traced as it was recorded: the stream the
freeze-time replay of a probed ``Machine`` must reproduce.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.machine.context import Machine
from repro.obs.probe import Probe
from repro.obs.profile import ProfileArgs, profile_workload
from repro.perf.engine import figure_suite_jobs, job_key
from repro.record.columnar import ColumnarTrace
from repro.tensor import CSFTensor, SparseMatrix
from repro.tensorops import spmspm_inner, ttm
from repro.workloads import get_workload, run_workload
from tests.recorders import RowsTrace

DATA = Path(__file__).resolve().parent.parent / "data"


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def _roundtrip(x):
    return json.loads(json.dumps(_canon(x), sort_keys=True))


def _golden(name):
    return json.loads((DATA / name).read_text())


class _SmallBatchTrace(ColumnarTrace):
    """The columnar recorder, compacting every 64 operand elements."""

    __slots__ = ()

    def __init__(self, name="trace", *, width, log=None):
        super().__init__(name, width=width, compact_elems=64, log=log)


_RECORDERS = {"rows": RowsTrace, "columnar": _SmallBatchTrace}


def _use_recorder(monkeypatch, recorder):
    if recorder is not None:
        monkeypatch.setattr("repro.machine.context.ColumnarTrace",
                            _RECORDERS[recorder])


class TestRunMetricsGolden:
    @pytest.mark.parametrize("recorder", [None, "rows", "columnar"])
    @pytest.mark.parametrize("family", ["gpm", "spmspm", "tensor"])
    def test_metrics_unchanged(self, family, recorder, monkeypatch):
        _use_recorder(monkeypatch, recorder)
        entry = _golden("golden_runs.json")[family]
        spec = get_workload(entry["workload"])
        rec = run_workload(spec, entry["dataset"],
                           entry.get("scale", 1.0), cache=None)
        assert _roundtrip(rec.metrics) == entry["metrics"]


class TestSuiteJobsGolden:
    def test_full_job_keys_unchanged(self):
        golden = _golden("golden_suite_jobs.json")
        keys = sorted(job_key(j) for j in figure_suite_jobs(1.0))
        assert keys == sorted(golden["full"])

    def test_smoke_job_keys_unchanged(self):
        golden = _golden("golden_suite_jobs.json")
        keys = sorted(job_key(j) for j in figure_suite_jobs(smoke=True))
        assert keys == sorted(golden["smoke"])


class TestProfileGolden:
    @pytest.mark.parametrize("recorder", [None, "rows", "columnar"])
    def test_triangle_profile_unchanged(self, recorder, monkeypatch):
        _use_recorder(monkeypatch, recorder)
        golden = _golden("golden_profile_triangle.json")
        result = profile_workload("triangle", ProfileArgs(scale=0.3))
        payload = result.to_json()
        payload.pop("wall_seconds", None)
        golden.pop("wall_seconds", None)
        assert _roundtrip(payload) == _roundtrip(golden)


# -- the profile event stream --------------------------------------------

#: CPython object ids inside ``granule`` reprs (they vary per process).
_OBJECT_ID = re.compile(r"\b\d{9,}\b")

#: A tracer cap that drops events on every pinned run.
_DROPPING_CAP = 500


def _event_digest(tracer) -> dict:
    """Event count, drops and SHA-256 of the canonical event list."""
    events = [[e.name, e.cat, e.ph, e.ts, e.dur, e.tid,
               {k: _OBJECT_ID.sub("id", v) if k == "granule" else v
                for k, v in e.args.items()}]
              for e in tracer.events]
    blob = json.dumps(events, sort_keys=True).encode()
    return {"events": len(events), "dropped": tracer.dropped,
            "sha256": hashlib.sha256(blob).hexdigest()}


def _random_matrix(m, n, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density) * rng.uniform(-1.0, 1.0, (m, n))
    return SparseMatrix.from_dense(dense)


def _random_tensor(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density) * rng.uniform(-1.0, 1.0, shape)
    coords = np.argwhere(dense)
    return CSFTensor.from_coo(shape, coords, dense[tuple(coords.T)])


def _profiled(workload, **args):
    def run(max_events):
        return profile_workload(
            workload, ProfileArgs(max_events=max_events, **args)).tracer
    return run


def _probed(kernel, a, b):
    def run(max_events):
        probe = Probe.collecting(max_events=max_events)
        machine = Machine(name=kernel.__name__, probe=probe)
        kernel(a, b, machine)
        machine.freeze()
        return probe.tracer
    return run


_EVENT_RUNS = {
    "triangle": _profiled("triangle", scale=0.3),
    "three-chain": _profiled("three-chain", scale=0.15),
    "4clique-flat": _profiled("4clique-flat", graph="email_eu_core",
                              scale=0.05),
    "tailed-triangle": _profiled("tailed-triangle", scale=0.15),
    "ttv": _profiled("ttv", tensor="Ch"),
    "spmspm-outer": _profiled("spmspm-outer", matrix="laser"),
    "spmspm-inner-probed": _probed(spmspm_inner,
                                   _random_matrix(24, 20, 0.3, 1),
                                   _random_matrix(20, 24, 0.3, 2)),
    "ttm-probed": _probed(ttm, _random_tensor((5, 6, 16), 0.3, 3),
                          _random_matrix(12, 16, 0.3, 4)),
}


class TestProfileEventsGolden:
    @pytest.mark.parametrize("recorder", [None, "rows"])
    @pytest.mark.parametrize("run", sorted(_EVENT_RUNS))
    def test_event_stream_unchanged(self, run, recorder, monkeypatch):
        _use_recorder(monkeypatch, recorder)
        golden = _golden("golden_profile_events.json")[run]
        assert sorted(golden) == sorted(map(str, (200_000, _DROPPING_CAP)))
        for cap, want in golden.items():
            assert _event_digest(_EVENT_RUNS[run](int(cap))) == want, cap
