"""Property tests: the recorder matches the per-op reference on real
``Machine`` programs.

Hypothesis generates small stream programs (loads, binary key/value
ops with optional bounds, and two-by-two ``vinter_sweep`` blocks) and
runs each on a :class:`~repro.machine.context.Machine` whose trace is a
tee: every op the machine records into its
:class:`~repro.record.columnar.ColumnarTrace`, one at a time or as a
block, is also analysed on the spot with
:func:`~repro.streams.runstats.analyze_pair` and recorded into an
:class:`~repro.arch.trace.Trace`.  The two frozen op columns must agree
in value and dtype, and — with the scalar counters carried over — the
two traces must serialize to byte-identical payloads whose
:class:`~repro.perf.cache.RunCache` sidecars carry the same
``payload_sha256``.  Explicit edge cases (empty trace, single op) ride
along as plain tests so they stay covered even under
``--hypothesis-seed`` shenanigans.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import _ARRAY_FIELDS, _SCALAR_FIELDS
from repro.machine.context import Machine
from repro.perf.cache import RunCache
from repro.record.columnar import ColumnarTrace
from repro.streams.runstats import UNBOUNDED
from tests.recorders import RowsTrace

_KEYS = st.lists(st.integers(min_value=0, max_value=300),
                 min_size=0, max_size=40)
_OP = st.tuples(
    st.sampled_from(["intersect", "subtract", "merge", "intersect_count",
                     "subtract_count", "merge_count", "vinter", "vmerge",
                     "vinter_sweep"]),
    _KEYS,
    _KEYS,
    st.one_of(st.just(UNBOUNDED), st.integers(min_value=1, max_value=300)),
)
_PROGRAM = st.lists(_OP, min_size=0, max_size=12)


class _TeeTrace(ColumnarTrace):
    """A recorder that also feeds every op to the per-op reference."""

    __slots__ = ("reference",)

    def __init__(self, name="trace", *, width, log=None):
        super().__init__(name, width=width, log=log)
        self.reference = RowsTrace(name, width=width, log=log)

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED, **op):
        self.reference.add_op_keys(kind, a_keys, b_keys, bound, **op)
        super().add_op_keys(kind, a_keys, b_keys, bound, **op)

    def add_ops(self, *args, **ops):
        self.reference.add_ops(*args, **ops)
        super().add_ops(*args, **ops)


def _as_keys(values):
    return np.unique(np.asarray(values, dtype=np.int64))


def _run_program(program):
    """Run ``program`` on a tee-recording machine; return its trace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.machine.context.ColumnarTrace", _TeeTrace)
        machine = Machine(name="prop")
    for i, (op, a_vals, b_vals, bound) in enumerate(program):
        a_keys, b_keys = _as_keys(a_vals), _as_keys(b_vals)
        # Memory-backed operands, so charges ride along on the ops.
        a = machine.load_values(a_keys, a_keys + 0.5, ("prop-a", i))
        b = machine.load_values(b_keys, b_keys * 2.0, ("prop-b", i))
        if op == "vinter":
            machine.vinter(a, b, bound=bound)
        elif op == "vinter_sweep":
            # Both streams against both, loaded again: a block of ops.
            streams = ([a_keys, b_keys], [a.values, b.values],
                       [("prop-a", i), ("prop-b", i)])
            machine.vinter_sweep(machine.sweep_streams(*streams, 1),
                                 machine.sweep_streams(*streams))
        elif op == "vmerge":
            machine.vmerge(1.0, a, -1.0, b)
        elif op.startswith("merge"):
            getattr(machine, op)(a, b)
        else:
            getattr(machine, op)(a, b, bound)
    trace = machine.trace
    for field in _SCALAR_FIELDS:
        setattr(trace.reference, field, getattr(trace, field))
    return trace


def _assert_columns_equal(trace):
    got, want = trace.freeze(), trace.reference.freeze()
    assert got.num_ops == want.num_ops == trace.num_ops
    for field in _ARRAY_FIELDS:
        col, ref = getattr(got, field), getattr(want, field)
        assert col.dtype == ref.dtype, field
        np.testing.assert_array_equal(col, ref, err_msg=field)


def _payload(trace):
    buf = io.BytesIO()
    trace.freeze().save(buf)
    return buf.getvalue()


def _sidecar_sha(root, name, trace):
    cache = RunCache(root / name)
    assert cache.put(f"prop-{name}", trace.freeze(), {})
    sidecar = json.loads((root / name / f"prop-{name}.json").read_text())
    return sidecar["payload_sha256"]


@settings(max_examples=40, deadline=None)
@given(program=_PROGRAM)
def test_deferred_ops_match_per_op_reference(program):
    trace = _run_program(program)
    _assert_columns_equal(trace)
    assert _payload(trace) == _payload(trace.reference)


@settings(max_examples=15, deadline=None)
@given(program=_PROGRAM)
def test_cache_sidecar_sha_matches(program, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prop-cache")
    trace = _run_program(program)
    assert _sidecar_sha(tmp, "recorded", trace) \
        == _sidecar_sha(tmp, "reference", trace.reference)


def test_empty_trace_edge_case(tmp_path):
    trace = _run_program([])
    assert trace.num_ops == 0
    _assert_columns_equal(trace)
    assert _sidecar_sha(tmp_path, "recorded", trace) \
        == _sidecar_sha(tmp_path, "reference", trace.reference)


def test_single_op_edge_case(tmp_path):
    trace = _run_program([("intersect", [1, 2, 3], [2, 3, 4], UNBOUNDED)])
    assert trace.num_ops == 1
    _assert_columns_equal(trace)
    assert _sidecar_sha(tmp_path, "recorded", trace) \
        == _sidecar_sha(tmp_path, "reference", trace.reference)
