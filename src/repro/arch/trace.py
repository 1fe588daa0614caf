"""Compact operation traces shared by all machine models.

An application kernel runs **once** against a recording context
(:mod:`repro.machine`) and produces a trace: one record per stream
operation plus aggregate scalar-work counters, frozen into a
:class:`FrozenTrace` of numpy columns (:data:`COLUMNS` gives their
names and dtypes).  Every machine model (CPU, SparseCore at any SU
count / bandwidth, and the accelerator baselines) then costs the same
trace — the methodology the paper itself uses for its baselines
(Section 6.1).

Both recording contexts — the
:class:`~repro.machine.context.Machine` and the instruction-level
:class:`~repro.arch.executor.StreamExecutor` — record into a
:class:`~repro.record.columnar.ColumnarTrace`, which analyses its ops
in batches.  :class:`Trace` here takes one pre-analysed
:class:`~repro.streams.runstats.OpStats` per op instead; nothing in the
package records through it.  It is the per-op reference the batched
recorder is tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.streams.runstats import OpStats


class OpKind(enum.IntEnum):
    """Stream computation categories (Table 1 compute instructions)."""

    INTERSECT = 0
    SUBTRACT = 1
    MERGE = 2
    VINTER = 3
    VMERGE = 4


#: Trace burst id marking "not part of any burst" (a singleton op).
NO_BURST = -1

#: The per-op columns of a frozen trace, in storage order, with dtypes.
COLUMNS = (
    ("kind", np.int8),
    ("su_cycles", np.int64),
    ("cpu_steps", np.int64),
    ("dir_changes", np.int64),
    ("eff_elems", np.int64),
    ("out_len", np.int64),
    ("flop_pairs", np.int64),
    ("burst", np.int64),
    ("nested", np.bool_),
    ("cpu_mem", np.float64),
    ("sc_mem", np.float64),
)
_ARRAY_FIELDS = tuple(name for name, _ in COLUMNS)
_SCALAR_FIELDS = ("shared_scalar_instrs", "cpu_only_scalar_instrs",
                  "sc_only_scalar_instrs")


class Trace:
    """Recorded operations of one application run.

    Use :meth:`add_op` per stream operation and :meth:`add_scalar` /
    :meth:`add_cpu_scalar` / :meth:`add_sc_scalar` for surrounding
    scalar work, then :meth:`freeze` before handing to cost models.
    Ops are stored as per-op row tuples and decomposed into columnar
    numpy arrays once, at :meth:`freeze` time.
    """

    __slots__ = ("name", "_rows", "_append_row",
                 "shared_scalar_instrs", "cpu_only_scalar_instrs",
                 "sc_only_scalar_instrs", "_next_burst", "_frozen")

    def __init__(self, name: str = "trace"):
        self.name = name
        #: one tuple per op: (kind, su_cycles, cpu_steps, dir_changes,
        #: eff_elems, out_len, flop_pairs, burst, nested, cpu_mem, sc_mem)
        self._rows: list[tuple] = []
        self._append_row = self._rows.append
        #: scalar instructions charged identically on both machines
        self.shared_scalar_instrs = 0
        #: scalar loop-management work only the CPU executes
        self.cpu_only_scalar_instrs = 0
        #: scalar work only SparseCore's host core executes
        self.sc_only_scalar_instrs = 0
        self._next_burst = 0
        self._frozen: FrozenTrace | None = None

    # -- recording ---------------------------------------------------------

    def new_burst(self) -> int:
        """Allocate a burst id (ops sharing it are independent work)."""
        self._next_burst += 1
        return self._next_burst

    def add_op(
        self,
        kind: OpKind,
        stats: OpStats,
        *,
        burst: int = NO_BURST,
        nested: bool = False,
        cpu_mem: float = 0.0,
        sc_mem: float = 0.0,
        flop_pairs: int = 0,
    ) -> None:
        self._frozen = None
        k = int(kind)
        # Kind dispatch (cf. OpStats.out_len): INTERSECT/VINTER emit one
        # match per cycle, SUBTRACT/MERGE/VMERGE run at window rate.
        if k == 0 or k == 3:  # INTERSECT, VINTER
            su = stats.su_cycles_intersect
            out_len = stats.n_matches
        elif k == 1:  # SUBTRACT
            su = stats.su_cycles_submerge
            out_len = stats.eff_a - stats.n_matches
        else:  # MERGE, VMERGE
            su = stats.su_cycles_submerge
            out_len = stats.n_union
        self._append_row((k, su, stats.cpu_steps, stats.direction_changes,
                          stats.eff_a + stats.eff_b, out_len, flop_pairs,
                          burst, nested, cpu_mem, sc_mem))

    def add_scalar(self, n: int) -> None:
        """Scalar instructions both machines execute (app logic)."""
        self.shared_scalar_instrs += n

    def add_cpu_scalar(self, n: int) -> None:
        """Scalar loop instructions only the scalar CPU needs."""
        self.cpu_only_scalar_instrs += n

    def add_sc_scalar(self, n: int) -> None:
        """Scalar instructions only SparseCore's host core needs."""
        self.sc_only_scalar_instrs += n

    # -- introspection -------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return len(self._rows)

    def freeze(self) -> "FrozenTrace":
        """Snapshot into numpy arrays for the cost models (cached)."""
        if self._frozen is None:
            cols = zip(*self._rows) if self._rows else ((),) * len(COLUMNS)
            self._frozen = FrozenTrace.from_columns(
                self.name, cols, self.shared_scalar_instrs,
                self.cpu_only_scalar_instrs, self.sc_only_scalar_instrs)
        return self._frozen

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, ops={self.num_ops})"


@dataclass(frozen=True)
class FrozenTrace:
    """Immutable numpy view of a trace, consumed by cost models."""

    name: str
    kind: np.ndarray
    su_cycles: np.ndarray
    cpu_steps: np.ndarray
    dir_changes: np.ndarray
    eff_elems: np.ndarray
    out_len: np.ndarray
    flop_pairs: np.ndarray
    burst: np.ndarray
    nested: np.ndarray
    cpu_mem: np.ndarray
    sc_mem: np.ndarray
    shared_scalar_instrs: int
    cpu_only_scalar_instrs: int
    sc_only_scalar_instrs: int
    #: SparseCore segment reductions and the CPU model's column sums,
    #: filled by the cost models on first use; derived data, so never
    #: saved, compared (see ``__eq__``) or shown
    _segments: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _cpu_sums: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @classmethod
    def from_columns(cls, name: str, columns, *scalar_counts: int
                     ) -> "FrozenTrace":
        """Build a trace from its :data:`COLUMNS`, in order (any
        sequences; arrays of the right dtype are kept, not copied), and
        the three scalar instruction counts."""
        return cls(name, *(np.asarray(col, dtype=dtype)
                           for col, (_, dtype) in zip(columns, COLUMNS)),
                   *scalar_counts)

    def __eq__(self, other) -> bool:
        """Same name, scalar counts and :data:`COLUMNS` (dtypes and
        values); the derived memos are not compared."""
        if not isinstance(other, FrozenTrace):
            return NotImplemented
        if self.name != other.name or any(
                getattr(self, name) != getattr(other, name)
                for name in _SCALAR_FIELDS):
            return False
        for name in _ARRAY_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                return False
        return True

    @property
    def num_ops(self) -> int:
        return int(self.kind.size)

    def freeze(self) -> "FrozenTrace":
        """Already frozen: cost models call ``freeze()`` on any trace."""
        return self

    def save(self, path, **extra_arrays) -> None:
        """Persist to ``.npz`` for offline analysis or re-pricing.

        ``extra_arrays`` ride along in the same archive (e.g. the run
        cache stores the Figure 14 length samples next to the trace);
        :meth:`load` ignores them.
        """
        arrays = {field: getattr(self, field) for field in _ARRAY_FIELDS}
        arrays["scalars"] = np.array(
            [getattr(self, field) for field in _SCALAR_FIELDS],
            dtype=np.int64)
        np.savez_compressed(path, name=np.array(self.name), **arrays,
                            **extra_arrays)

    @classmethod
    def load(cls, path) -> "FrozenTrace":
        """Load a trace saved with :meth:`save`."""
        with np.load(path) as data:
            return cls.from_npz(data)

    @classmethod
    def from_npz(cls, data) -> "FrozenTrace":
        """Build a trace from an open :meth:`save` archive (an
        ``np.load`` result); extra arrays in it are ignored."""
        scalars = data["scalars"]
        return cls(
            name=str(data["name"]),
            **{field: data[field] for field in _ARRAY_FIELDS},
            **{field: int(scalars[i])
               for i, field in enumerate(_SCALAR_FIELDS)},
        )


@dataclass
class CycleReport:
    """Cycle totals of one machine on one trace, with the Figure 9/10
    breakdown categories (Cache, Mispred., Other computation,
    Intersection)."""

    machine: str
    cache_cycles: float = 0.0
    branch_cycles: float = 0.0
    intersection_cycles: float = 0.0
    other_cycles: float = 0.0
    total_cycles: float = 0.0
    detail: dict = field(default_factory=dict)

    def breakdown(self) -> dict[str, float]:
        """Normalized stacked-bar fractions (the paper's Figures 9/10)."""
        parts = {
            "Cache": self.cache_cycles,
            "Mispred.": self.branch_cycles,
            "Other computation": self.other_cycles,
            "Intersection": self.intersection_cycles,
        }
        total = sum(parts.values()) or 1.0
        return {k: v / total for k, v in parts.items()}

    def speedup_over(self, other: "CycleReport") -> float:
        """How much faster *this* machine is than ``other``."""
        if self.total_cycles <= 0:
            return float("inf")
        return other.total_cycles / self.total_cycles
