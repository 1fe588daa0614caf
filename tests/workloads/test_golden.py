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
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.trace import Trace
from repro.obs.profile import ProfileArgs, profile_workload
from repro.perf.engine import figure_suite_jobs, job_key
from repro.record.columnar import ColumnarTrace
from repro.streams.runstats import UNBOUNDED, analyze_pair
from repro.workloads import get_workload, run_workload

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


class _RowsTrace(Trace):
    """The per-op reference, recording through the deferred-op API."""

    __slots__ = ("_width",)

    def __init__(self, name="trace", *, width):
        super().__init__(name)
        self._width = width

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED, **op):
        self.add_op(
            kind, analyze_pair(a_keys, b_keys, bound, width=self._width),
            **op)


class _SmallBatchTrace(ColumnarTrace):
    """The columnar recorder, compacting every 64 operand elements."""

    __slots__ = ()

    def __init__(self, name="trace", *, width):
        super().__init__(name, width=width, compact_elems=64)


_RECORDERS = {"rows": _RowsTrace, "columnar": _SmallBatchTrace}


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
