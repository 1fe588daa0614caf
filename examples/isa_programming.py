#!/usr/bin/env python3
"""Programming the stream ISA directly (paper Figure 3).

Registers a CSR graph into simulated memory, loads the graph format
registers, and drives the instruction-level executor with hand-written
stream assembly — including ``S_NESTINTER`` triangle counting and a
bounded intersection, exactly the code patterns of Figure 3.

Run:  python examples/isa_programming.py
"""

from repro.arch import SimMemory, StreamExecutor
from repro.graph import load_graph
from repro.isa import assemble
from repro.isa.spec import Instruction, Opcode
from repro.obs import Counters, Probe


def main() -> None:
    graph = load_graph("citeseer", scale=0.3)
    print(f"graph: {graph}\n")

    memory = SimMemory()
    indptr = memory.register(graph.indptr, "csr-index")
    edges = memory.register(graph.indices, "csr-edges")
    offsets = memory.register(graph.offsets, "csr-offsets")

    counters = Counters()
    executor = StreamExecutor(memory, probe=Probe(counters=counters))
    executor.execute(Instruction(Opcode.S_LD_GFR, (indptr, edges, offsets)))

    # Figure 3(a): triangle counting via nested intersection.  The host
    # loop (Python, standing in for the scalar core) iterates vertices;
    # each iteration issues three stream instructions.
    triangles = 0
    for v in graph.vertices():
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        if hi == lo:
            continue
        addr = memory.element_address(edges, lo)
        executor.run(assemble(f"""
            S_READ {addr}, {hi - lo}, 3, 1      # n0 = N(v0)
            S_NESTINTER 3, R5                   # sum of bounded intersections
            S_FREE 3
        """))
        triangles += int(executor.regs["R5"])
    # Each triangle is counted once per anchor vertex.
    triangles //= 3
    print(f"triangles via S_NESTINTER: {triangles}")

    # Cross-check with the compiled-kernel path.
    from repro.gpm import run_app

    expected = run_app("T", graph).count
    print(f"triangles via compiled GPM kernel: {expected}")
    assert triangles == expected

    # Figure 3(b): bounded intersection with an upper bound in R10.
    u, v = next(iter(graph.edges()))
    lo_u, hi_u = int(graph.indptr[u]), int(graph.indptr[u + 1])
    lo_v, hi_v = int(graph.indptr[v]), int(graph.indptr[v + 1])
    executor.regs["R10"] = u  # upper bound v0
    executor.run(assemble(f"""
        S_READ {memory.element_address(edges, lo_u)}, {hi_u - lo_u}, 1, 0
        S_READ {memory.element_address(edges, lo_v)}, {hi_v - lo_v}, 2, 0
        S_INTER 1, 2, 4, R10                    # BoundedIntersect(n0,n1,v0)
        S_MERGE.C 1, 2, R7
        S_FREE 1
        S_FREE 2
    """))
    print(f"\nbounded intersection for edge ({u},{v}): common neighbors "
          f"below {u} stored in stream 4")
    print(f"|N({u}) ∪ N({v})| = {int(executor.regs['R7'])}")

    report = executor.report()
    print(f"\nexecutor cycle report: {report.total_cycles:.3e} cycles")
    fills = int(counters.get("scache.fills")
                + counters.get("scache.refills"))
    hits = counters.get("scratchpad.pin_hits")
    lookups = hits + counters.get("scratchpad.misses")
    print(f"S-Cache fills: {fills}, scratchpad hit rate: "
          f"{hits / lookups if lookups else 0.0:.1%}")


if __name__ == "__main__":
    main()
