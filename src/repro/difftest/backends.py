"""Backend adapters: evaluate one case per independent implementation.

Each backend returns the *canonical result* of a case:

* stream cases -> a list aligned with ``case.nodes``; each entry is a
  ``("keys", ...)``, ``("kv", ...)``, ``("count", n)`` or
  ``("value", x)`` tuple, or ``None`` where the backend does not
  implement that node natively (the oracle skips ``None``).
* GPM cases -> ``("count", n)``.
* tensor cases -> ``("dense", shape, entries)``.

The stream family runs through five genuinely distinct paths:

``functional``
    the vectorised kernels in :mod:`repro.streams.ops` (ground truth
    per the module's own claim — which is exactly what we are testing);
``pyref``
    a from-scratch pure-Python model written directly from Table 1
    (sets, dicts, sequential arithmetic — no numpy);
``stream_unit``
    the cycle-stepped :class:`~repro.arch.stream_unit.StreamUnit`
    parallel-comparison engine (key sets from stepped emission, value
    reductions applied sequentially to its emitted matches);
``machine``
    the recording :class:`~repro.machine.context.Machine`, whose counts
    are answered from the merge-run *analytics* of its frozen trace
    (:func:`~repro.record.columnar.analyze_segments`), not from the
    functional kernels;
``executor``
    the instruction-level :class:`~repro.arch.executor.StreamExecutor`
    driven purely through the ISA — ``S_VREAD`` from a
    :class:`~repro.arch.simmem.SimMemory`, compute instructions, and
    ``S_FETCH``-until-EOS result extraction.

Backends intentionally look up ``ops.<fn>`` at call time so a
monkeypatched (deliberately broken) kernel is visible to every layer
that really uses it — that is how the self-check injects bugs.
"""

from __future__ import annotations

import numpy as np

from repro.difftest.cases import (
    GpmCase,
    StreamCase,
    TensorCase,
    canonical_dense,
    canonical_keys,
    canonical_kv,
    norm_float,
)
# ---------------------------------------------------------------------------
# stream family
# ---------------------------------------------------------------------------


def _input_slots(case: StreamCase) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(inp.key_array(), inp.val_array()) for inp in case.inputs]


def _combine_scalar(valop: str, va: float, vb: float) -> float:
    if valop == "MAC":
        return va * vb
    if valop == "MAX":
        return va if va >= vb else vb
    if valop == "MIN":
        return va if va <= vb else vb
    raise ValueError(f"unknown value op {valop!r}")


def run_functional(case: StreamCase) -> list:
    """The vectorised kernels of :mod:`repro.streams.ops`."""
    from repro.streams import ops

    graph = case.graph()
    slots: list = _input_slots(case)
    results = []
    for node in case.nodes:
        k = node.kind
        if k == "nestinter":
            s = slots[node.a][0]
            total = sum(
                ops.intersect_count(s, graph.neighbors(s_i), int(s_i))
                for s_i in s.tolist()
            )
            slots.append(None)
            results.append(("count", int(total)))
            continue
        a_keys = slots[node.a][0]
        b_keys = slots[node.b][0]
        if k == "intersect":
            out = ops.intersect(a_keys, b_keys, node.bound)
            slots.append((out, None))
            results.append(canonical_keys(out))
        elif k == "subtract":
            out = ops.subtract(a_keys, b_keys, node.bound)
            slots.append((out, None))
            results.append(canonical_keys(out))
        elif k == "merge":
            out = ops.merge(a_keys, b_keys)
            slots.append((out, None))
            results.append(canonical_keys(out))
        elif k == "intersect_count":
            slots.append(None)
            results.append(("count", ops.intersect_count(a_keys, b_keys,
                                                         node.bound)))
        elif k == "subtract_count":
            slots.append(None)
            results.append(("count", ops.subtract_count(a_keys, b_keys,
                                                        node.bound)))
        elif k == "merge_count":
            slots.append(None)
            results.append(("count", ops.merge_count(a_keys, b_keys)))
        elif k == "vinter":
            value = ops.vinter(a_keys, slots[node.a][1],
                               b_keys, slots[node.b][1], node.valop)
            slots.append(None)
            results.append(("value", norm_float(value)))
        elif k == "vmerge":
            keys, vals = ops.vmerge(node.scale_a, a_keys, slots[node.a][1],
                                    node.scale_b, b_keys, slots[node.b][1])
            slots.append((keys, vals))
            results.append(canonical_kv(keys, vals))
        else:
            raise ValueError(k)
    return results


def run_pyref(case: StreamCase) -> list:
    """Pure-Python reference written directly from Table 1 semantics."""
    adjacency: dict[int, list[int]] = {}
    if case.graph_edges is not None:
        adjacency = {v: [] for v in range(case.graph_n)}
        for u, v in case.graph_edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for v in adjacency:
            adjacency[v] = sorted(set(adjacency[v]))

    slots: list = [(list(inp.keys),
                    dict(zip(inp.keys, inp.vals))) for inp in case.inputs]

    def below(keys: list[int], bound: int) -> list[int]:
        if bound < 0:
            return keys
        return [x for x in keys if x < bound]

    results = []
    for node in case.nodes:
        k = node.kind
        if k == "nestinter":
            s = slots[node.a][0]
            total = 0
            for s_i in s:
                nbrs = set(adjacency.get(s_i, ()))
                total += sum(1 for x in s if x < s_i and x in nbrs)
            slots.append(None)
            results.append(("count", total))
            continue
        a_keys, a_vals = slots[node.a]
        b_keys, b_vals = slots[node.b]
        if k in ("intersect", "intersect_count"):
            ae, be = below(a_keys, node.bound), set(below(b_keys, node.bound))
            out = [x for x in ae if x in be]
        elif k in ("subtract", "subtract_count"):
            ae, be = below(a_keys, node.bound), set(below(b_keys, node.bound))
            out = [x for x in ae if x not in be]
        elif k in ("merge", "merge_count"):
            out = sorted(set(a_keys) | set(b_keys))
        elif k == "vinter":
            common = [x for x in a_keys if x in set(b_keys)]
            acc = 0.0
            for x in common:
                acc += _combine_scalar(node.valop, a_vals[x], b_vals[x])
            slots.append(None)
            results.append(("value", norm_float(acc)))
            continue
        elif k == "vmerge":
            out = sorted(set(a_keys) | set(b_keys))
            vals = {x: node.scale_a * a_vals.get(x, 0.0)
                    + node.scale_b * b_vals.get(x, 0.0) for x in out}
            slots.append((out, vals))
            results.append(("kv", tuple(out),
                            tuple(norm_float(vals[x]) for x in out)))
            continue
        else:
            raise ValueError(k)
        if k.endswith("_count"):
            slots.append(None)
            results.append(("count", len(out)))
        else:
            slots.append((out, {}))
            results.append(("keys", tuple(out)))
    return results


def run_stream_unit(case: StreamCase) -> list:
    """Cycle-stepped SU emission; value reductions over its matches."""
    from repro.arch.stream_unit import StreamUnit

    su = StreamUnit()
    graph = case.graph()
    slots: list = _input_slots(case)
    results = []
    for node in case.nodes:
        k = node.kind
        if k == "nestinter":
            s = slots[node.a][0]
            total = 0
            for s_i in s.tolist():
                run = su.run(s, graph.neighbors(s_i), "intersect",
                             bound=int(s_i))
                total += int(run.output.size)
            slots.append(None)
            results.append(("count", total))
            continue
        a_keys = slots[node.a][0]
        b_keys = slots[node.b][0]
        if k in ("intersect", "subtract", "merge",
                 "intersect_count", "subtract_count", "merge_count"):
            base = k.removesuffix("_count")
            run = su.run(a_keys, b_keys, base, bound=node.bound)
            if k.endswith("_count"):
                slots.append(None)
                results.append(("count", int(run.output.size)))
            else:
                slots.append((run.output, None))
                results.append(canonical_keys(run.output))
        elif k == "vinter":
            run = su.run(a_keys, b_keys, "intersect")
            da = dict(zip(a_keys.tolist(), slots[node.a][1].tolist()))
            db = dict(zip(b_keys.tolist(), slots[node.b][1].tolist()))
            acc = 0.0
            for x in run.output.tolist():
                acc += _combine_scalar(node.valop, da[x], db[x])
            slots.append(None)
            results.append(("value", norm_float(acc)))
        elif k == "vmerge":
            run = su.run(a_keys, b_keys, "merge")
            da = dict(zip(a_keys.tolist(), slots[node.a][1].tolist()))
            db = dict(zip(b_keys.tolist(), slots[node.b][1].tolist()))
            keys = run.output
            vals = np.array(
                [node.scale_a * da.get(x, 0.0) + node.scale_b * db.get(x, 0.0)
                 for x in keys.tolist()], dtype=np.float64)
            slots.append((keys, vals))
            results.append(canonical_kv(keys, vals))
        else:
            raise ValueError(k)
    return results


def run_machine(case: StreamCase, machine=None) -> list:
    """The recording machine context; counts come from merge-run
    analytics rather than the functional kernels.

    After the run the trace is frozen, which analyses every recorded
    op.  A count node (``*_count``, ``nestinter``) answers with the
    summed ``out_len`` of the ops it recorded, and a key-producing
    node's output length must equal its op's ``out_len``.  Where the
    ``Machine``'s own count or output length disagrees with the
    analytics this raises, which the oracle reports as a mismatch.

    ``machine`` lets callers supply their own (e.g. a probed machine
    whose trace/counters they want to inspect afterwards, as the obs
    parity and attribution tests do)."""
    from repro.machine.context import Machine

    machine = machine if machine is not None \
        else Machine(name=f"difftest-{case.seed}")
    graph = case.graph()
    slots: list = []
    for i, inp in enumerate(case.inputs):
        slots.append(machine.load_values(inp.key_array(), inp.val_array(),
                                         ("dt-in", case.seed, i),
                                         priority=inp.priority))
    #: per node: (first op, end op, output stream, returned scalar)
    recorded = []
    for node in case.nodes:
        k = node.kind
        first = machine.trace.num_ops
        out = value = None
        if k == "nestinter":
            value = machine.nest_intersect(slots[node.a], graph)
        else:
            a, b = slots[node.a], slots[node.b]
            if k == "intersect":
                out = machine.intersect(a, b, node.bound)
            elif k == "subtract":
                out = machine.subtract(a, b, node.bound)
            elif k == "merge":
                out = machine.merge(a, b)
            elif k == "vmerge":
                out = machine.vmerge(node.scale_a, a, node.scale_b, b)
            elif k == "intersect_count":
                value = machine.intersect_count(a, b, node.bound)
            elif k == "subtract_count":
                value = machine.subtract_count(a, b, node.bound)
            elif k == "merge_count":
                value = machine.merge_count(a, b)
            elif k == "vinter":
                value = machine.vinter(a, b, node.valop)
            else:
                raise ValueError(k)
        slots.append(out)
        recorded.append((first, machine.trace.num_ops, out, value))

    out_len = machine.freeze().out_len
    results = []
    for j, (node, (first, end, out, value)) in enumerate(
            zip(case.nodes, recorded)):
        if node.kind == "vinter":
            results.append(("value", norm_float(value)))
            continue
        analytic = int(out_len[first:end].sum())
        claimed = len(out) if out is not None else int(value)
        if claimed != analytic:
            raise AssertionError(
                f"node {j} ({node.kind}): the Machine returned length "
                f"{claimed}, its trace analytics {analytic}")
        if out is None:
            results.append(("count", analytic))
        elif node.kind == "vmerge":
            results.append(canonical_kv(out.keys, out.values))
        else:
            results.append(canonical_keys(out.keys))
    return results


def run_executor(case: StreamCase) -> list:
    """Instruction-level execution through the stream ISA proper."""
    from repro.arch.executor import StreamExecutor
    from repro.arch.simmem import SimMemory
    from repro.isa.spec import EOS, Instruction, Opcode

    memory = SimMemory()
    ex = StreamExecutor(memory)

    def run_instr(opcode, *operands):
        ex.execute(Instruction(opcode, tuple(operands)))

    for i, inp in enumerate(case.inputs):
        addr = memory.register(inp.key_array(), f"keys{i}")
        vaddr = memory.register(inp.val_array(), f"vals{i}")
        run_instr(Opcode.S_VREAD, addr, len(inp.keys), i, vaddr,
                  inp.priority)

    graph = case.graph()
    if graph is not None:
        indptr_addr = memory.register(graph.indptr, "indptr")
        edges_addr = memory.register(graph.indices, "edges")
        offsets_addr = memory.register(graph.offsets, "offsets")
        run_instr(Opcode.S_LD_GFR, indptr_addr, edges_addr, offsets_addr)

    n_in = len(case.inputs)
    stream_nodes: list[tuple[int, int, str]] = []  # (node idx, sid, kind)
    scalar_regs: dict[int, str] = {}
    for j, node in enumerate(case.nodes):
        sid_out = n_in + j
        k = node.kind
        if k == "intersect":
            run_instr(Opcode.S_INTER, node.a, node.b, sid_out, node.bound)
            stream_nodes.append((j, sid_out, "keys"))
        elif k == "subtract":
            run_instr(Opcode.S_SUB, node.a, node.b, sid_out, node.bound)
            stream_nodes.append((j, sid_out, "keys"))
        elif k == "merge":
            run_instr(Opcode.S_MERGE, node.a, node.b, sid_out)
            stream_nodes.append((j, sid_out, "keys"))
        elif k == "intersect_count":
            scalar_regs[j] = f"R{j}"
            run_instr(Opcode.S_INTER_C, node.a, node.b, f"R{j}", node.bound)
        elif k == "subtract_count":
            scalar_regs[j] = f"R{j}"
            run_instr(Opcode.S_SUB_C, node.a, node.b, f"R{j}", node.bound)
        elif k == "merge_count":
            scalar_regs[j] = f"R{j}"
            run_instr(Opcode.S_MERGE_C, node.a, node.b, f"R{j}")
        elif k == "vinter":
            scalar_regs[j] = f"F{j % 8}"
            run_instr(Opcode.S_VINTER, node.a, node.b, f"F{j % 8}",
                      node.valop)
        elif k == "vmerge":
            run_instr(Opcode.S_VMERGE, node.scale_a, node.scale_b,
                      node.a, node.b, sid_out)
            stream_nodes.append((j, sid_out, "kv"))
        elif k == "nestinter":
            scalar_regs[j] = f"R{j}"
            run_instr(Opcode.S_NESTINTER, node.a, f"R{j}")
        else:
            raise ValueError(k)

    results: list = [None] * len(case.nodes)
    for j, node in enumerate(case.nodes):
        if j in scalar_regs:
            raw = ex.regs.get(scalar_regs[j], 0)
            if node.kind == "vinter":
                results[j] = ("value", norm_float(raw))
            else:
                results[j] = ("count", int(raw))
    for j, sid, shape in stream_nodes:
        # Architectural extraction: S_FETCH walks the stream until EOS.
        keys = []
        offset = 0
        while True:
            run_instr(Opcode.S_FETCH, sid, offset, "R31")
            fetched = int(ex.regs["R31"])
            if fetched == EOS:
                break
            keys.append(fetched)
            offset += 1
        if shape == "kv":
            vals = ex._stream_values(sid)
            results[j] = ("kv", tuple(keys),
                          tuple(norm_float(v) for v in vals))
        else:
            results[j] = ("keys", tuple(keys))
    return results


STREAM_BACKENDS = {
    "functional": run_functional,
    "pyref": run_pyref,
    "stream_unit": run_stream_unit,
    "machine": run_machine,
    "executor": run_executor,
}


# ---------------------------------------------------------------------------
# GPM family
# ---------------------------------------------------------------------------


def gpm_bruteforce(case: GpmCase):
    from repro.gpm.reference import count_embeddings_bruteforce

    count = count_embeddings_bruteforce(case.pattern(), case.graph(),
                                        vertex_induced=case.vertex_induced)
    return ("count", int(count))


def _gpm_plan(case: GpmCase, use_nested: bool):
    from repro.gpm.compiler import compile_pattern
    from repro.machine.context import Machine

    compiled = compile_pattern(case.pattern(),
                               vertex_induced=case.vertex_induced,
                               use_nested=use_nested)
    machine = Machine(name=f"difftest-{case.seed}")
    count = compiled.count(case.graph(), machine)
    machine.freeze()  # run the deferred batch analysis end to end
    return ("count", int(count))


def gpm_plan(case: GpmCase):
    return _gpm_plan(case, use_nested=False)


def gpm_plan_nested(case: GpmCase):
    return _gpm_plan(case, use_nested=True)


def gpm_networkx(case: GpmCase):
    """Independent count via networkx (unlabeled cases only)."""
    if case.graph_labels is not None:
        return None
    import networkx as nx
    from networkx.algorithms import isomorphism

    pattern = case.pattern()
    g = case.graph().to_networkx()
    p = nx.Graph()
    p.add_nodes_from(range(pattern.n))
    p.add_edges_from(pattern.edges)
    matcher = isomorphism.GraphMatcher(g, p)
    if case.vertex_induced:
        mappings = sum(1 for _ in matcher.subgraph_isomorphisms_iter())
    else:
        mappings = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
    return ("count", mappings // len(pattern.automorphisms))


GPM_BACKENDS = {
    "bruteforce": gpm_bruteforce,
    "plan": gpm_plan,
    "plan_nested": gpm_plan_nested,
    "networkx": gpm_networkx,
}


# ---------------------------------------------------------------------------
# tensor family
# ---------------------------------------------------------------------------


def _sparse_a(case: TensorCase):
    from repro.tensor.csf import CSFTensor
    from repro.tensor.matrix import SparseMatrix

    a = case.a_dense()
    if case.kind == "spmspm":
        return SparseMatrix.from_dense(a, name="A")
    coords = np.argwhere(a != 0.0).astype(np.int64)
    vals = a[a != 0.0]
    return CSFTensor.from_coo(a.shape, coords, vals, name="A")


def _sparse_b(case: TensorCase):
    from repro.tensor.matrix import SparseMatrix

    if case.kind == "ttv":
        return case.b_dense()
    return SparseMatrix.from_dense(case.b_dense(), name="B")


def tensor_dense(case: TensorCase):
    a, b = case.a_dense(), case.b_dense()
    if case.kind == "spmspm":
        return canonical_dense(a @ b)
    if case.kind == "ttv":
        return canonical_dense(np.einsum("ijk,k->ij", a, b))
    return canonical_dense(np.einsum("ijl,kl->ijk", a, b))


def tensor_pyref(case: TensorCase):
    """Sequential scalar loops, no numpy reductions."""
    a, b = case.a_dense().tolist(), case.b_dense().tolist()
    if case.kind == "spmspm":
        m, kk = case.a_shape
        n = case.b_shape[1]
        out = [[sum(a[i][x] * b[x][j] for x in range(kk))
                for j in range(n)] for i in range(m)]
    elif case.kind == "ttv":
        si, sj, sk = case.a_shape
        out = [[sum(a[i][j][x] * b[x] for x in range(sk))
                for j in range(sj)] for i in range(si)]
    else:
        si, sj, sl = case.a_shape
        sk = case.b_shape[0]
        out = [[[sum(a[i][j][x] * b[k][x] for x in range(sl))
                 for k in range(sk)] for j in range(sj)] for i in range(si)]
    return canonical_dense(np.asarray(out, dtype=np.float64))


def _spmspm_dataflow(case: TensorCase, dataflow: str):
    if case.kind != "spmspm":
        return None
    from repro.machine.context import Machine
    from repro.tensorops import spmspm

    fn = {"inner": spmspm.spmspm_inner, "outer": spmspm.spmspm_outer,
          "gustavson": spmspm.spmspm_gustavson}[dataflow]
    machine = Machine(name=f"difftest-{case.seed}")
    out = fn(_sparse_a(case), _sparse_b(case), machine)
    return canonical_dense(_pad_dense(out.to_dense(),
                                      (case.a_shape[0], case.b_shape[1])))


def _pad_dense(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if arr.shape == shape:
        return arr
    out = np.zeros(shape, dtype=np.float64)
    out[tuple(slice(0, s) for s in arr.shape)] = arr
    return out


def tensor_inner(case):
    return _spmspm_dataflow(case, "inner")


def tensor_outer(case):
    return _spmspm_dataflow(case, "outer")


def tensor_gustavson(case):
    return _spmspm_dataflow(case, "gustavson")


def tensor_taco(case: TensorCase):
    """The TACO-style compiled kernel path (spmspm only)."""
    if case.kind != "spmspm":
        return None
    from repro.machine.context import Machine
    from repro.tensorops.taco import compile_expression

    dataflow = ("inner", "outer", "gustavson")[case.seed % 3]
    kernel = compile_expression("C(i,j) = A(i,k) * B(k,j)", dataflow)
    out = kernel.run(_sparse_a(case), _sparse_b(case),
                     Machine(name=f"difftest-{case.seed}"))
    return canonical_dense(_pad_dense(out.to_dense(),
                                      (case.a_shape[0], case.b_shape[1])))


def tensor_machine(case: TensorCase):
    """The machine kernels for TTV / TTM."""
    if case.kind == "spmspm":
        return None
    from repro.machine.context import Machine
    from repro.tensorops.ttm import ttm
    from repro.tensorops.ttv import ttv

    machine = Machine(name=f"difftest-{case.seed}")
    a, b = _sparse_a(case), _sparse_b(case)
    if case.kind == "ttv":
        out = ttv(a, b, machine).to_dense()
        full = (case.a_shape[0], case.a_shape[1])
    else:
        out = ttm(a, b, machine).to_dense()
        full = (case.a_shape[0], case.a_shape[1], case.b_shape[0])
    return canonical_dense(_pad_dense(out, full))


TENSOR_BACKENDS = {
    "dense": tensor_dense,
    "pyref": tensor_pyref,
    "inner": tensor_inner,
    "outer": tensor_outer,
    "gustavson": tensor_gustavson,
    "taco": tensor_taco,
    "machine": tensor_machine,
}


FAMILIES = {
    "stream": STREAM_BACKENDS,
    "gpm": GPM_BACKENDS,
    "tensor": TENSOR_BACKENDS,
}


def backends_for(family: str) -> dict:
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown difftest family {family!r}") from None


__all__ = [
    "FAMILIES",
    "GPM_BACKENDS",
    "STREAM_BACKENDS",
    "TENSOR_BACKENDS",
    "backends_for",
]
