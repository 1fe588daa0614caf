"""Plan execution: the generated pattern-enumeration loop nests.

:func:`execute_plan` runs a :class:`~repro.gpm.plan.MatchingPlan`
against a graph on a recording machine, returning the exact embedding
count.  :func:`enumerate_plan` is the generator variant FSM builds on:
it yields each matched prefix together with the candidate array of the
final pattern vertex.

The loop nest follows the compiled structure exactly: candidate sets
are built with bounded intersections/subtractions (plus an explicit
subtraction of the already-matched vertex set when the plan requires
it, as in the paper's Figure 2).  The final, counting level is
recorded in bulk under each DFS node of the level before it: one
:meth:`~repro.machine.context.Machine.count_sweep` counts every child's
candidates, or one ``S_NESTINTER`` when the plan enabled the nested
optimization.
"""

from __future__ import annotations

import numpy as np

from repro.arch.trace import OpKind
from repro.gpm.plan import LevelPlan, MatchingPlan
from repro.machine.context import Machine, StreamOperand
from repro.streams.runstats import UNBOUNDED

#: Scalar instructions per loop iteration of the enumeration code
#: (candidate fetch, bounds check, recursion bookkeeping).
LOOP_INSTRS = 5


def label_index(graph) -> dict[int, np.ndarray]:
    """Per-label sorted vertex arrays (labeled pattern matching)."""
    if graph.labels is None:
        return {}
    order = np.argsort(graph.labels, kind="stable")
    sorted_labels = graph.labels[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))
    )
    index = {}
    for i, start in enumerate(boundaries.tolist()):
        end = boundaries[i + 1] if i + 1 < boundaries.size else order.size
        label = int(sorted_labels[start])
        index[label] = np.sort(order[start:end]).astype(np.int64)
    return index


class _PlanRunner:
    """One plan execution; holds per-run state."""

    def __init__(self, plan: MatchingPlan, graph, machine: Machine):
        self.plan = plan
        self.graph = graph
        self.machine = machine
        self.labels = label_index(graph) if plan.pattern.labels else {}
        self.matched: list[int] = []
        self.count = 0
        self._pending_scalar = 0

    # -- scalar batching (one machine call per outer vertex) -----------------

    def _loop_tick(self) -> None:
        self._pending_scalar += LOOP_INSTRS

    def _flush_scalar(self) -> None:
        if self._pending_scalar:
            self.machine.scalar(self._pending_scalar)
            self._pending_scalar = 0

    # -- candidate construction ------------------------------------------------

    def _bound(self, level: LevelPlan) -> int:
        if not level.upper_bounds:
            return UNBOUNDED
        return min(self.matched[q] for q in level.upper_bounds)

    def _level_zero_vertices(self) -> np.ndarray:
        level = self.plan.levels[0]
        if level.label is not None:
            return self.labels.get(level.label,
                                   np.empty(0, dtype=np.int64))
        return np.arange(self.graph.num_vertices, dtype=np.int64)

    def _neighbors(self, position: int, priority: int) -> StreamOperand:
        return self.machine.neighbors(self.graph, self.matched[position],
                                      priority)

    def _candidates(self, level: LevelPlan) -> StreamOperand:
        """Build the candidate set of ``level`` one op at a time (a
        counting run records its last level with :meth:`_count_leaves`)."""
        machine = self.machine
        bound = self._bound(level)
        priority = 1 if level.position < self.plan.depth - 1 else 0

        # Pending operations, executed left to right; each entry is
        # (kind, operand) with kind in {"inter", "sub"}.
        steps: list[tuple[str, StreamOperand | np.ndarray]] = []
        for c in level.connected[1:]:
            steps.append(("inter", self._neighbors(c, priority)))
        for d in level.disconnected:
            steps.append(("sub", self._neighbors(d, priority)))
        if level.subtract_positions:
            matched_keys = np.array(
                sorted(self.matched[q] for q in level.subtract_positions),
                dtype=np.int64,
            )
            steps.append(("sub", StreamOperand(matched_keys)))

        base = self._neighbors(level.connected[0], priority)
        if not steps:
            # A pure bounded edge list: its size needs no stream op,
            # only the CSR offset / a searchsorted (free on both).
            keys = base.keys
            if bound != UNBOUNDED:
                keys = keys[: int(keys.searchsorted(bound))]
            cand = StreamOperand(keys, pending=base.pending)
        else:
            cand = base
            for kind, operand in steps:
                if kind == "inter":
                    cand = machine.intersect(cand, operand, bound)
                else:
                    cand = machine.subtract(cand, operand, bound)
        # Label constraints are a per-candidate O(1) check in the
        # generated code (not a set operation): filter functionally and
        # charge both machines the scalar comparison per candidate.
        if level.label is not None:
            cand = self._label_filter(cand, level.label)
        return cand

    def _count_leaves(self, children: np.ndarray) -> int:
        """Count the last level's candidates under each of ``children``
        (the vertices matched at the level before it), recording the
        whole level with one :meth:`Machine.count_sweep` call: the ops
        and loads :meth:`_candidates` makes for it, child by child, with
        a counting final op."""
        level = self.plan.levels[-1]
        here, n = len(self.matched), children.size
        rows = level.connected[1:] + level.disconnected + level.connected[:1]
        verts = np.empty((len(rows), n), dtype=np.int64)
        for i, q in enumerate(rows):
            verts[i] = children if q == here else self.matched[q]
        kinds = (OpKind.INTERSECT,) * (len(level.connected) - 1) \
            + (OpKind.SUBTRACT,) * len(level.disconnected)
        bounds = None
        if level.upper_bounds:
            fixed = [self.matched[q] for q in level.upper_bounds if q != here]
            bounds = np.full(n, min(fixed)) if fixed else children
            if fixed and here in level.upper_bounds:
                bounds = np.minimum(bounds, children)
        exclude = None
        if level.subtract_positions:
            exclude = np.empty((n, len(level.subtract_positions)),
                               dtype=np.int64)
            for i, q in enumerate(level.subtract_positions):
                exclude[:, i] = children if q == here else self.matched[q]
            exclude.sort(axis=1)
        return self.machine.count_sweep(self.graph, verts, kinds, bounds,
                                        exclude=exclude, label=level.label)

    def _label_filter(self, operand: StreamOperand,
                      label: int) -> StreamOperand:
        """Keep candidates carrying ``label`` (one compare per key)."""
        keys = operand.keys
        self.machine.scalar(2 * int(keys.size))
        if keys.size == 0 or self.graph.labels is None:
            return operand
        mask = self.graph.labels[keys] == label
        return StreamOperand(keys[mask], pending=operand.pending)

    # -- recursion -----------------------------------------------------------------

    def run(self) -> int:
        self._match(0, self._level_zero_vertices())
        self._flush_scalar()
        return self.count

    def _match(self, position: int, vertices: np.ndarray) -> None:
        """Match each of ``vertices`` at ``position`` in turn and count
        the embeddings that extend the matched prefix."""
        self._pending_scalar += LOOP_INSTRS * vertices.size
        depth = self.plan.depth
        if position == depth - 1:  # a one-level plan
            self.count += vertices.size
            return
        if position == depth - 2:
            if vertices.size:
                self.count += self._count_leaves(vertices)
            return
        level = self.plan.levels[position + 1]
        nested = self.plan.use_nested and position + 1 == depth - 2
        for v in vertices.tolist():
            self.matched.append(v)
            cand = self._candidates(level)
            if nested:
                self.count += self.machine.nest_intersect(cand, self.graph)
            else:
                self._match(position + 1, cand.keys)
            self.matched.pop()
            if position == 0:
                self._flush_scalar()

    # -- enumeration (FSM) ------------------------------------------------------------

    def enumerate(self):
        depth = self.plan.depth
        for v0 in self._level_zero_vertices().tolist():
            self.matched.append(v0)
            self._loop_tick()
            if depth == 1:
                yield (tuple(self.matched), np.empty(0, dtype=np.int64))
            else:
                yield from self._enumerate_descend(1)
            self.matched.pop()
            self._flush_scalar()

    def enumerate_complete(self):
        """Yield every complete match of the plan as a vertex tuple.

        ``self.matched`` still holds the yielded tuple while the caller
        consumes it, so downstream code may issue further machine ops
        against the current assignment (the IEP counter does)."""
        depth = self.plan.depth
        for v0 in self._level_zero_vertices().tolist():
            self.matched.append(v0)
            self._loop_tick()
            if depth == 1:
                yield (v0,)
            else:
                yield from self._enum_complete_descend(1)
            self.matched.pop()
            self._flush_scalar()

    def _enum_complete_descend(self, position: int):
        level = self.plan.levels[position]
        cand = self._candidates(level)
        last = position == self.plan.depth - 1
        for v in cand.keys.tolist():
            self.matched.append(v)
            self._loop_tick()
            if last:
                yield tuple(self.matched)
            else:
                yield from self._enum_complete_descend(position + 1)
            self.matched.pop()

    def _enumerate_descend(self, position: int):
        level = self.plan.levels[position]
        last = position == self.plan.depth - 1
        cand = self._candidates(level)
        if last:
            if cand.keys.size:
                yield (tuple(self.matched), cand.keys)
            return
        for v in cand.keys.tolist():
            self.matched.append(v)
            self._loop_tick()
            yield from self._enumerate_descend(position + 1)
            self.matched.pop()


def execute_plan(plan: MatchingPlan, graph, machine: Machine) -> int:
    """Count the embeddings of ``plan.pattern`` in ``graph``."""
    return _PlanRunner(plan, graph, machine).run()


def enumerate_plan(plan: MatchingPlan, graph, machine: Machine):
    """Yield ``(matched_prefix, final_candidates)`` per partial match."""
    yield from _PlanRunner(plan, graph, machine).enumerate()
