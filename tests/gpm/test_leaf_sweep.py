"""The bulk GPM recording paths against the per-op loop they replace.

:meth:`~repro.machine.context.Machine.count_sweep` records a whole
counting leaf level under one DFS node, and
:meth:`~repro.machine.context.Machine.nest_intersect` expands one
``S_NESTINTER`` into all its sub-ops in one call.  Both must record
exactly what the per-op loop records: the same ops in the same order,
the same access-log rows (so every level of the memory model is in the
same state), the same memory charges, scalar instructions and length
samples, and under a probe the same counters and events.

:class:`_PerOpRunner` and :class:`_PerOpMachine` keep that loop as the
reference: the plan runner's counting level as one ``Machine`` call per
op and ``nest_intersect`` as one load, record and count per sub-op.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.gpm.kernels as kernels
from repro.arch.config import SparseCoreConfig
from repro.arch.trace import OpKind
from repro.gpm import pattern as pat
from repro.gpm.apps import APP_REGISTRY
from repro.gpm.compiler import compile_pattern
from repro.gpm.kernels import _PlanRunner
from repro.gpm.plan import build_plan
from repro.graph.csr import CSRGraph
from repro.machine.context import (CPU_NESTED_LOOP_INSTRS, KEY_BYTES,
                                   Machine, StreamOperand)
from repro.obs.probe import Probe
from repro.streams import ops
from repro.streams.runstats import UNBOUNDED, truncate_bound


class _PerOpMachine(Machine):
    """``S_NESTINTER`` recorded one sub-op at a time."""

    __slots__ = ()

    def nest_intersect(self, s, graph):
        s = self._coerce(s)
        total = 0
        pending = s.take_pending()
        with self.burst():
            for s_i in s.keys.tolist():
                nbr = self.neighbors(graph, s_i)
                mem = (nbr.take_pending(),)
                if pending is not None:
                    mem += (pending,)
                self._defer(OpKind.INTERSECT, s.keys, nbr.keys, s_i,
                            burst=self._burst, nested=True, mem=mem)
                total += ops.intersect_count(s.keys, nbr.keys, s_i)
                pending = None
                self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS)
                if self.record_lengths:
                    self.length_samples.append(len(s))
                    self.length_samples.append(len(nbr))
        return total


class _PerOpRunner(_PlanRunner):
    """The plan runner with its counting level recorded one op per
    child: a counting op last, or a label filter after the last op."""

    def run(self):
        depth = self.plan.depth
        nested_at = depth - 2 if self.plan.use_nested else None
        for v0 in self._level_zero_vertices().tolist():
            self.matched.append(v0)
            self._loop_tick()
            if depth == 1:
                self.count += 1
            else:
                self._descend(1, nested_at)
            self.matched.pop()
            self._flush_scalar()
        return self.count

    def _descend(self, position, nested_at):
        level = self.plan.levels[position]
        if position == self.plan.depth - 1:
            self.count += self._count_candidates(level)
            return
        cand = self._candidates(level)
        if position == nested_at:
            self.count += self.machine.nest_intersect(cand, self.graph)
            return
        for v in cand.keys.tolist():
            self.matched.append(v)
            self._loop_tick()
            self._descend(position + 1, nested_at)
            self.matched.pop()

    def _count_candidates(self, level):
        machine = self.machine
        bound = self._bound(level)
        steps = [("inter", self._neighbors(c, 0))
                 for c in level.connected[1:]]
        steps += [("sub", self._neighbors(d, 0)) for d in level.disconnected]
        if level.subtract_positions:
            steps.append(("sub", StreamOperand(np.array(
                sorted(self.matched[q] for q in level.subtract_positions),
                dtype=np.int64))))
        needs_filter = level.label is not None
        base = self._neighbors(level.connected[0], 0)
        if not steps:
            keys = base.keys
            if bound != UNBOUNDED:
                keys = keys[: int(np.searchsorted(keys, bound))]
            operand = StreamOperand(keys)
            if needs_filter:
                operand = self._label_filter(operand, level.label)
            return int(operand.keys.size)
        cand = base
        for i, (kind, operand) in enumerate(steps):
            if i == len(steps) - 1 and not needs_filter:
                count = (machine.intersect_count if kind == "inter"
                         else machine.subtract_count)
                return count(cand, operand, bound)
            cand = (machine.intersect if kind == "inter"
                    else machine.subtract)(cand, operand, bound)
        return int(self._label_filter(cand, level.label).keys.size)


# -- graphs ---------------------------------------------------------------

#: The hub's degree: its 2,056 keys are 16,448 bytes, more than the
#: 16 KiB scratchpad holds.
_HUB_DEGREE = 4100


def _graph(rng, core, density, isolated, hub):
    """A random core, ``isolated`` vertices without edges and, with
    ``hub``, one vertex adjacent to part of the core and to enough
    degree-1 vertices to reach :data:`_HUB_DEGREE`; ids are shuffled
    and every vertex carries one of three labels."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)
             if rng.random() < density]
    n = core + isolated
    if hub:
        attached = [u for u in range(core) if rng.random() < 0.5]
        n_leaves = _HUB_DEGREE - len(attached)
        edges += [(n, u) for u in attached]
        edges += [(n, n + 1 + i) for i in range(n_leaves)]
        n += 1 + n_leaves
    ids = rng.permutation(n)
    edges = [(ids[u], ids[v]) for u, v in edges]
    return CSRGraph.from_edges(n, edges, labels=rng.integers(0, 3, n))


@st.composite
def _graphs(draw, hub):
    """Random graphs; with the hub, cores dense enough for cliques even
    in the first, simplest example."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _graph(rng, draw(st.integers(10, 14) if hub else
                            st.integers(3, 14)),
                  draw(st.sampled_from((0.8, 0.45) if hub else
                                       (0.2, 0.45, 0.8))),
                  draw(st.integers(1, 3)), hub)


# -- runs -----------------------------------------------------------------

#: Beyond the Table 3 apps: every leaf shape the compiler emits.
_PATTERNS = {
    # a label filter after a 1-step subtraction, and level-0 labels
    "labeled-wedge": compile_pattern(
        pat.Pattern(3, [(0, 1), (0, 2)], labels=[0, 1, 1]),
        use_nested=False),
    # a depth-2 plan: a bounded leaf with no step
    "edge": compile_pattern(pat.Pattern(2, [(0, 1)]), use_nested=False),
    # a labeled leaf with no step
    "labeled-edge": compile_pattern(
        pat.Pattern(2, [(0, 1)], labels=[2, 0]), use_nested=False),
    # matched-set subtraction, holding the child, with no loaded step
    "tailed-triangle-edge-induced": compile_pattern(
        pat.tailed_triangle(), vertex_induced=False),
}

#: A path matched end to end: the leaf's base is the child itself.
_PATH_PLAN = build_plan(pat.chain(3), order=[0, 1, 2], use_nested=False)


def _count(name, graph, machine):
    if name in APP_REGISTRY:
        return APP_REGISTRY[name].run(graph, machine)
    if name == "path":
        return kernels.execute_plan(_PATH_PLAN, graph, machine)
    return _PATTERNS[name].count(graph, machine)


def _record(name, graph, per_op, probe):
    machine_type = _PerOpMachine if per_op else Machine
    machine = machine_type(name=name, record_lengths=True, probe=probe)
    runner = _PerOpRunner if per_op else _PlanRunner
    with mock.patch.object(kernels, "_PlanRunner", runner):
        count = _count(name, graph, machine)
    return count, machine


def _assert_same_machines(got, want, probes):
    """Equal frozen traces (and so scalar counters), length samples,
    access logs (the same rows leave every memory level in the same
    state) and, under probes, counters and events."""
    assert got.freeze() == want.freeze()
    assert got.length_samples == want.length_samples
    assert got.transfer.rows() == want.transfer.rows()
    if probes[0] is not None:
        assert probes[0].counters.flat() == probes[1].counters.flat()
        assert probes[0].tracer.events == probes[1].tracer.events
        assert probes[0].tracer.dropped == probes[1].tracer.dropped


def _assert_same_recording(name, graph, collecting):
    probes = [Probe.collecting() if collecting else None for _ in range(2)]
    count, got = _record(name, graph, False, probes[0])
    ref_count, want = _record(name, graph, True, probes[1])
    assert count == ref_count
    _assert_same_machines(got, want, probes)


#: Table 3's pattern apps (FSM counts through ``enumerate_plan``, which
#: no sweep replaces), the 4-motif extension and the other leaf shapes.
_RUNS = ("T", "TS", "TC", "TT", "TM", "4C", "4CS", "5C", "5CS", "4M",
         *_PATTERNS, "path")


@pytest.mark.parametrize("collecting", [False, True],
                         ids=["no-probe", "probe"])
@pytest.mark.parametrize("name", _RUNS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(graph=_graphs(hub=False))
def test_sweep_records_the_per_op_loop(name, collecting, graph):
    _assert_same_recording(name, graph, collecting)


@pytest.mark.parametrize("name", ["T", "TT"])
@settings(max_examples=1, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=_graphs(hub=True))
def test_sweep_records_the_per_op_loop_past_the_scratchpad(name, graph):
    """Whole runs with the hub: ``S_NESTINTER`` over its neighbours,
    and its edge list as the base and a subtracted step of thousands of
    leaf ops.  (A recording over its thousands of neighbours takes about
    a second, so the Machine-level sweeps below cover the other shapes
    with the hub.)"""
    _assert_same_recording(name, graph, False)


# -- the Machine calls against their per-op loops ---------------------------


def _per_op_count_sweep(machine, graph, verts, kinds, bounds, exclude,
                        label):
    """The loop :meth:`Machine.count_sweep` documents, op by op."""
    total = 0
    for j in range(verts.shape[1]):
        bound = UNBOUNDED if bounds is None else int(bounds[j])
        operands = [(kind, machine.neighbors(graph, int(v)))
                    for kind, v in zip(kinds, verts[:-1, j])]
        if exclude is not None:
            operands.append((OpKind.SUBTRACT, StreamOperand(exclude[j])))
        cand = machine.neighbors(graph, int(verts[-1, j]))
        if not operands:
            cand = StreamOperand(truncate_bound(cand.keys, bound))
        for kind, operand in operands:
            cand = (machine.intersect if kind == OpKind.INTERSECT
                    else machine.subtract)(cand, operand, bound)
        keys = cand.keys
        if label is not None:
            machine.scalar(2 * keys.size)
            keys = keys[graph.labels[keys] == label]
        total += keys.size
    return total


@st.composite
def _sweeps(draw, graph):
    """Leaf levels: children drawn around the hub (ids near its own and
    its neighbours'), 0-3 steps, bounds (some past every vertex), a
    matched set, a label, and a priority-1 load before each level that
    moves the LRUs and the scratchpad."""
    hub = int(np.argmax(graph.degrees))
    pool = st.sampled_from(
        [hub, *graph.neighbors(hub)[:3].tolist(),
         *graph.neighbors(hub)[-3:].tolist(), *range(12)])
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 5))
        steps = draw(st.integers(0, 3))
        verts = np.array([[draw(pool) for _ in range(n)]
                          for _ in range(steps + 1)], dtype=np.int64)
        kinds = [draw(st.sampled_from((OpKind.INTERSECT, OpKind.SUBTRACT)))
                 for _ in range(steps)]
        bounds = exclude = None
        if draw(st.booleans()):
            bounds = np.array([draw(st.integers(0, graph.num_vertices + 2))
                               for _ in range(n)], dtype=np.int64)
        if draw(st.booleans()):
            exclude = np.sort(np.array(
                [[draw(pool), draw(pool)] for _ in range(n)],
                dtype=np.int64).reshape(n, 2), axis=1)
        label = draw(st.none() | st.integers(0, 2))
        levels.append((draw(pool), verts, kinds, bounds, exclude, label))
    return levels


def _run_sweeps(graph, levels, per_op, probe):
    machine = Machine(name="sweeps", record_lengths=True, probe=probe)
    counts = []
    for warm, verts, kinds, bounds, exclude, label in levels:
        machine.neighbors(graph, warm, priority=1)
        if per_op:
            counts.append(_per_op_count_sweep(machine, graph, verts, kinds,
                                              bounds, exclude, label))
        else:
            counts.append(machine.count_sweep(graph, verts, kinds, bounds,
                                              exclude=exclude, label=label))
    return counts, machine


_HUB_GRAPH = _graph(np.random.default_rng(5), 12, 0.6, 2, True)


@pytest.mark.parametrize("collecting", [False, True],
                         ids=["no-probe", "probe"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_count_sweep_matches_its_per_op_loop(collecting, data):
    levels = data.draw(_sweeps(_HUB_GRAPH))
    probes = [Probe.collecting() if collecting else None for _ in range(2)]
    counts, got = _run_sweeps(_HUB_GRAPH, levels, False, probes[0])
    ref_counts, want = _run_sweeps(_HUB_GRAPH, levels, True, probes[1])
    assert counts == ref_counts
    _assert_same_machines(got, want, probes)


@pytest.mark.parametrize("collecting", [False, True],
                         ids=["no-probe", "probe"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_nest_intersect_matches_its_per_sub_op_loop(collecting, data):
    """Sets with and without the hub, loaded (a pending charge for the
    first sub-op) or on-chip."""
    graph = _HUB_GRAPH
    hub = int(np.argmax(graph.degrees))
    sets = data.draw(st.lists(st.tuples(
        st.sets(st.sampled_from([hub, *range(14),
                                 *graph.neighbors(hub)[:4].tolist()]),
                max_size=8),
        st.booleans()), min_size=1, max_size=3))
    probes = [Probe.collecting() if collecting else None for _ in range(2)]
    machines = []
    for machine_type, probe in zip((Machine, _PerOpMachine), probes):
        machine = machine_type(name="nest", record_lengths=True,
                               probe=probe)
        totals = []
        for members, loaded in sets:
            keys = np.array(sorted(members), dtype=np.int64)
            s = machine.load(keys, ("set", len(totals)), 1) if loaded \
                else StreamOperand(keys)
            totals.append(machine.nest_intersect(s, graph))
        machines.append((totals, machine))
    (totals, got), (ref_totals, want) = machines
    assert totals == ref_totals
    _assert_same_machines(got, want, probes)


def test_hub_graph_outgrows_the_scratchpad():
    assert _HUB_GRAPH.max_degree * KEY_BYTES > \
        SparseCoreConfig().scratchpad_bytes
    assert np.count_nonzero(_HUB_GRAPH.degrees == 0) >= 2
