"""Reference recorders the tests swap in for the shipped one.

:class:`~repro.machine.context.Machine` and
:class:`~repro.arch.executor.StreamExecutor` record every op through
:meth:`~repro.record.columnar.ColumnarTrace.add_op_keys`, which defers
the merge-run analysis to one batched pass.  :class:`RowsTrace` takes
the same calls but analyses each op on the spot with the sequential
:func:`~repro.streams.runstats.analyze_pair` walk and keeps it as one
row of an :class:`~repro.arch.trace.Trace` — the per-op reference the
batched recorder must reproduce byte for byte.
"""

from repro.arch.trace import Trace
from repro.streams.runstats import UNBOUNDED, analyze_pair


class RowsTrace(Trace):
    """The per-op reference, recording through the deferred-op API."""

    __slots__ = ("_width",)

    def __init__(self, name="trace", *, width):
        super().__init__(name)
        self._width = width

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED, **op):
        self.add_op(
            kind, analyze_pair(a_keys, b_keys, bound, width=self._width),
            **op)
