"""Recording: how the recording contexts store the operations they run.

Every :class:`~repro.machine.context.Machine`, probed or not, and the
instruction-level :class:`~repro.arch.executor.StreamExecutor` record
into a :class:`~repro.record.columnar.ColumnarTrace`: an op is captured
as references to its key arrays plus its scalar operands, and the
merge-run statistics of pending ops are computed in vectorised
:func:`~repro.record.columnar.analyze_segments` batches when
:data:`~repro.record.columnar.COMPACT_ELEMS` key elements are pending
and at freeze time; a block of ops given as flat arrays is analysed
the same way when it is recorded.  The frozen trace is a regular
:class:`~repro.arch.trace.FrozenTrace`, so pricing, the run cache and
a probe's counters and timeline never see how it was recorded.
Nothing records through the per-op
:func:`~repro.streams.runstats.analyze_pair` and
:class:`~repro.arch.trace.Trace`; they are the reference the batched
path is tested against (see docs/performance.md).
"""

from __future__ import annotations

from repro.record.columnar import ColumnarTrace, analyze_segments

__all__ = ["ColumnarTrace", "analyze_segments"]
