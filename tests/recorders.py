"""Reference recorders the tests swap in for the shipped one.

:class:`~repro.machine.context.Machine` and
:class:`~repro.arch.executor.StreamExecutor` record every op through
:meth:`~repro.record.columnar.ColumnarTrace.add_op_keys`, or a block of
ops through :meth:`~repro.record.columnar.ColumnarTrace.add_ops`, which
analyse the ops in batched passes and take each op's memory charge from
the access log's pricing.  :class:`RowsTrace` takes the same calls but
analyses each op on the spot with the sequential
:func:`~repro.streams.runstats.analyze_pair` walk and keeps it as one
row of an :class:`~repro.arch.trace.Trace` — the per-op reference the
batched recorder must reproduce byte for byte.  At freeze it sums each
op's charge one op at a time, adding its rows' priced cycles left to
right.
"""

import numpy as np

from repro.arch.trace import NO_BURST, Trace
from repro.record.columnar import COMPACT_ELEMS
from repro.streams.runstats import UNBOUNDED, analyze_pair


class RowsTrace(Trace):
    """The per-op reference, recording through the deferred-op API."""

    __slots__ = ("_width", "_log", "_mem")

    #: the shipped recorder's bound, which sizes a bulk caller's blocks
    compact_elems = COMPACT_ELEMS

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

    def add_ops(self, kind, a_keys, a_sizes, b_keys, b_sizes, flop_pairs, *,
                mem, mem_counts, burst=NO_BURST, nested=False):
        """One :meth:`add_op_keys` per op of the block."""
        a0 = b0 = m0 = 0
        for flops, a1, b1, m1 in zip(flop_pairs.tolist(), *(
                np.cumsum(sizes).tolist()
                for sizes in (a_sizes, b_sizes, mem_counts))):
            self.add_op_keys(kind, a_keys[a0:a1], b_keys[b0:b1],
                             mem=tuple(mem[m0:m1].tolist()), burst=burst,
                             nested=nested, flop_pairs=flops)
            a0, b0, m0 = a1, b1, m1

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
