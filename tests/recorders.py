"""Reference recorders the tests swap in for the shipped one.

:class:`~repro.machine.context.Machine` and
:class:`~repro.arch.executor.StreamExecutor` record every op through
:meth:`~repro.record.columnar.ColumnarTrace.add_op_keys`, which defers
the merge-run analysis to one batched pass and the op's memory charge
to its access log's pricing.  :class:`RowsTrace` takes the same calls
but analyses each op on the spot with the sequential
:func:`~repro.streams.runstats.analyze_pair` walk and keeps it as one
row of an :class:`~repro.arch.trace.Trace` — the per-op reference the
batched recorder must reproduce byte for byte.  At freeze it sums each
op's charge one op at a time, adding its rows' priced cycles left to
right.
"""

from repro.arch.trace import Trace
from repro.streams.runstats import UNBOUNDED, analyze_pair


class RowsTrace(Trace):
    """The per-op reference, recording through the deferred-op API."""

    __slots__ = ("_width", "_log", "_mem")

    def __init__(self, name="trace", *, width, log=None):
        super().__init__(name)
        self._width = width
        self._log = log
        #: per op not summed yet: (op index, its log rows)
        self._mem = []

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED, *, mem=(),
                    **op):
        if mem:
            self._mem.append((self.num_ops, mem))
        self.add_op(
            kind, analyze_pair(a_keys, b_keys, bound, width=self._width),
            **op)

    def freeze(self):
        for i, mem in self._mem:
            cpu = sc = 0.0
            for row in mem:
                cost = self._log.cost(row)
                cpu += cost.cpu_cycles
                sc += cost.sc_cycles
            self._rows[i] = self._rows[i][:-2] + (cpu, sc)
        self._mem = []
        return super().freeze()
