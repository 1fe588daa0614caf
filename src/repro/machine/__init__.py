"""Application-facing machine interface.

Application kernels (GPM enumeration, tensor dataflows) execute against
a :class:`~repro.machine.context.Machine`: every set operation computes
its real result *and* records a cost trace that any machine model —
the baseline CPU, SparseCore at any configuration, or the accelerator
baselines in :mod:`repro.accel` — can price afterwards.  One kernel
run therefore feeds every comparison in the paper's figures.
"""

from repro.machine.context import Machine, StreamOperand, StreamSweep, AppRun

__all__ = ["Machine", "StreamOperand", "StreamSweep", "AppRun"]
