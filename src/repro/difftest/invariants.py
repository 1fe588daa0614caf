"""Cycle-model invariants checked alongside functional conformance.

Functional agreement (the oracle) says every backend computes the same
*answer*; these checks say the *cost model* is self-consistent:

* **bracket agreement** — the closed-form merge-run analytics
  (:func:`repro.streams.runstats.analyze_pair`) equal the stepped
  :class:`~repro.arch.stream_unit.StreamUnit` simulation, cycle for
  cycle, for intersection and for the windowed subtract/merge path;
* **segment agreement** — so does the batch analyser every recorded op
  goes through (:func:`repro.record.columnar.analyze_segments`), fed
  the bound-truncated keys the recorder feeds it;
* **monotonicity** — truncating an operand (a prefix of its keys)
  never increases simulated SU cycles: less data can't be slower;
* **S-Cache bookkeeping** — demand refills match the slot arithmetic
  and whole-stream residency implies the stream fits one slot;
* **reuse never hurts** — re-loading the same granule through the
  :class:`~repro.arch.transfer.TransferModel` costs no more than the
  cold load on either machine, and a high-priority granule that fits
  the scratchpad is free on SparseCore the second time;
* **pricing agreement** — the access log priced in chunks, level by
  level, charges every row what replaying it through the per-access
  :class:`~repro.arch.memory.CacheHierarchy` and
  :class:`~repro.arch.scratchpad.Scratchpad` charges (both machines'
  cycles and the scratchpad-hit flag), under Table 2's hierarchy, one
  whose levels the log outgrows partway and one so small that every
  level evicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch import transfer as arch_transfer
from repro.arch.config import CacheConfig, SparseCoreConfig
from repro.arch.memory import CacheHierarchy
from repro.arch.scache import StreamCache
from repro.arch.scratchpad import Scratchpad
from repro.arch.stream_unit import StreamUnit
from repro.arch.transfer import PRIORITY, STREAM, VALUE, TransferModel
from repro.difftest.generator import CaseGenerator, Sizes, derive_seed
from repro.obs.counters import NULL_COUNTERS
from repro.record.columnar import analyze_segments
from repro.streams.runstats import UNBOUNDED, analyze_pair, truncate_bound


@dataclass
class InvariantViolation:
    """One failed model-level invariant."""

    name: str
    seed: int
    detail: str

    def render(self) -> str:
        return f"INVARIANT {self.name} seed={self.seed}: {self.detail}"


def _operand_pairs(case):
    """All (keys_a, keys_b, bound) pairs exercised by a stream case."""
    arrays = [inp.key_array() for inp in case.inputs]
    pairs = []
    seen = set()
    for node in case.nodes:
        if node.kind == "nestinter" or node.a >= len(arrays) \
                or node.b >= len(arrays):
            continue
        key = (node.a, node.b, node.bound)
        if key not in seen:
            seen.add(key)
            pairs.append((arrays[node.a], arrays[node.b], node.bound))
    if not pairs and len(arrays) >= 2:
        pairs.append((arrays[0], arrays[1], UNBOUNDED))
    return pairs


def check_stream_case(case) -> list[InvariantViolation]:
    """Bracket, segment and monotonicity invariants over one case's
    operands."""
    violations = []
    su = StreamUnit()

    def bad(name, detail):
        violations.append(InvariantViolation(name, case.seed, detail))

    pairs = _operand_pairs(case)
    # One batch per bound mode, as the recorder analyses its ops: the
    # bounded batch prices intersect and subtract, the unbounded merge.
    bounded = analyze_segments(
        [truncate_bound(a, bound) for a, _, bound in pairs],
        [truncate_bound(b, bound) for _, b, bound in pairs])
    unbounded = analyze_segments([a for a, _, _ in pairs],
                                 [b for _, b, _ in pairs])
    segments = {"intersect": bounded[5], "subtract": bounded[6],
                "merge": unbounded[6]}
    for i, (a, b, bound) in enumerate(pairs):
        stats, merged = analyze_pair(a, b, bound), analyze_pair(a, b)
        analytic = {"intersect": stats.su_cycles_intersect,
                    "subtract": stats.su_cycles_submerge,
                    "merge": merged.su_cycles_submerge}
        operands = f"a={a.tolist()} b={b.tolist()} bound={bound}"
        for kind in ("intersect", "subtract", "merge"):
            kind_bound = UNBOUNDED if kind == "merge" else bound
            sim = su.run(a, b, kind, bound=kind_bound).cycles
            for check, model in (("bracket", analytic[kind]),
                                 ("segments", int(segments[kind][i]))):
                if sim != model:
                    bad(f"{check}.{kind}",
                        f"sim={sim} {check}={model} {operands}")
            # Monotonicity: a prefix of either operand can't cost more.
            # Subtract/merge pay windowed ceil(L/W) per run, and cutting
            # an operand can split one run at the cut point, so they get
            # a one-cycle ceiling allowance; intersection is strict (a
            # match run only ever gets cheaper when its partner keys
            # vanish).
            slack = 0 if kind == "intersect" else 1
            for half_a, half_b in ((a[: a.size // 2], b),
                                   (a, b[: b.size // 2])):
                part = su.run(half_a, half_b, kind, bound=kind_bound).cycles
                if part > sim + slack:
                    bad(f"monotone.{kind}",
                        f"prefix cycles {part} > full {sim} + {slack} "
                        f"{operands}")
    return violations


def check_scache(case) -> list[InvariantViolation]:
    """Slot arithmetic of the S-Cache against an independent formula."""
    violations = []
    scache = StreamCache()
    for slot, inp in enumerate(case.inputs):
        n = len(inp.keys)
        got = scache.fill_initial(slot, n)
        if got != min(n, scache.slot_keys):
            violations.append(InvariantViolation(
                "scache.initial_fill", case.seed,
                f"fill_initial({n}) fetched {got}"))
        refills = scache.demand_refills(slot)
        expect = max(0, -(-(n - scache.slot_keys) // scache.slot_keys)) \
            if n > scache.slot_keys else 0
        if refills != expect:
            violations.append(InvariantViolation(
                "scache.refills", case.seed,
                f"stream len {n}: {refills} refills, expected {expect}"))
        if scache.whole_stream_resident(slot) != (n <= scache.slot_keys):
            violations.append(InvariantViolation(
                "scache.residency", case.seed,
                f"stream len {n}: residency flag inconsistent"))
    return violations


def check_reuse(case) -> list[InvariantViolation]:
    """Warm loads never cost more than cold loads; scratchpad-resident
    high-priority granules are free on SparseCore."""
    violations = []
    transfer = TransferModel()
    for i, inp in enumerate(case.inputs):
        nbytes = max(8 * len(inp.keys), 8)
        granule = ("difftest", case.seed, i)
        cold = transfer.cost(transfer.load_stream(granule, nbytes,
                                                  inp.priority))
        warm = transfer.cost(transfer.load_stream(granule, nbytes,
                                                  inp.priority))
        if warm.sc_cycles > cold.sc_cycles \
                or warm.cpu_cycles > cold.cpu_cycles:
            violations.append(InvariantViolation(
                "reuse.warm_cost", case.seed,
                f"warm load ({warm.cpu_cycles}, {warm.sc_cycles}) dearer "
                f"than cold ({cold.cpu_cycles}, {cold.sc_cycles})"))
        if inp.priority > 0 and nbytes <= transfer.config.scratchpad_bytes \
                and warm.sc_cycles != 0.0:
            violations.append(InvariantViolation(
                "reuse.scratchpad", case.seed,
                f"priority-{inp.priority} granule of {nbytes} B not "
                f"scratchpad-resident on re-load"))
    return violations


#: A hierarchy small enough that every level evicts on a case's log.
TINY_HIERARCHY = SparseCoreConfig(
    scratchpad_bytes=64,
    cache=CacheConfig(l1d_bytes=128, l2_bytes=256, l3_bytes=512))

#: One whose levels a case's log outgrows partway through.
SMALL_HIERARCHY = SparseCoreConfig(
    scratchpad_bytes=256,
    cache=CacheConfig(l1d_bytes=512, l2_bytes=1024, l3_bytes=2048))


def oracle_costs(rows, config: SparseCoreConfig,
                 counters=NULL_COUNTERS) -> list[tuple]:
    """Replay logged ``(granule key, bytes, kind)`` rows one access at a
    time through the per-access models, counting into ``counters`` as
    they do; ``(cpu, sc, scratchpad hit)`` per row."""
    cache = config.cache
    cpu_h = CacheHierarchy(cache, use_l1=True, counters=counters,
                           name="mem.cpu")
    sc_h = CacheHierarchy(cache, use_l1=False, counters=counters,
                          name="mem.sc")
    scratchpad = Scratchpad(config.scratchpad_bytes, counters=counters)
    out = []
    for key, nbytes, kind in rows:
        cpu = cpu_h.access(key, nbytes)
        if kind == VALUE:
            sc = sc_h.access(key, nbytes) / arch_transfer.VALUE_GATHER_MLP
            out.append((cpu, sc, False))
        else:
            hit = scratchpad.access(key, nbytes, int(kind == PRIORITY))
            sc = 0.0 if hit else sc_h.access_pipelined(key, nbytes)
            out.append((cpu, sc, hit))
        path = "value" if kind == VALUE else "stream"
        counters.inc(f"transfer.{path}_loads")
        counters.add(f"transfer.{path}_bytes", nbytes)
    return out


def priced_costs(rows, config: SparseCoreConfig, cuts=()) -> list[tuple]:
    """Log ``rows`` in a :class:`TransferModel` and price them, a chunk
    ending before each row index in ``cuts``; ``(cpu, sc, scratchpad
    hit)`` per row."""
    log = TransferModel(config)
    cuts = set(cuts)
    for i, (key, nbytes, kind) in enumerate(rows):
        if i in cuts:
            log.price()
        if kind == VALUE:
            log.load_values(key, nbytes)
        else:
            log.load_stream(key, nbytes, int(kind == PRIORITY))
    out = []
    for row in range(len(rows)):
        cost = log.cost(row)
        out.append((cost.cpu_cycles, cost.sc_cycles, cost.scratchpad_hit))
    return out


def check_pricing(case) -> list[InvariantViolation]:
    """The chunked pricing pass charges each row of a log built from the
    case what the per-access oracle charges it."""
    rng = np.random.default_rng(case.seed)
    rows = []
    for _ in range(2):  # each granule comes back, often at a new size
        for inp in case.inputs:
            kind = VALUE if rng.random() < 0.3 else (
                PRIORITY if inp.priority > 0 else STREAM)
            rows.append((("case", int(rng.integers(0, 4))),
                         8 * int(rng.integers(0, len(inp.keys) + 1)), kind))
    cuts = np.flatnonzero(rng.random(len(rows)) < 0.3).tolist()
    violations = []
    for name, config in (("paper", SparseCoreConfig()),
                         ("small", SMALL_HIERARCHY),
                         ("tiny", TINY_HIERARCHY)):
        want = oracle_costs(rows, config)
        got = priced_costs(rows, config, cuts)
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                violations.append(InvariantViolation(
                    "pricing.oracle", case.seed,
                    f"{name} hierarchy, row {i} {rows[i]}: priced {g}, "
                    f"oracle {w}"))
                break
    return violations


def run_invariants(root_seed: int, n_cases: int,
                   sizes: Sizes | None = None) -> list[InvariantViolation]:
    """Check all invariants over ``n_cases`` generated stream cases."""
    gen = CaseGenerator(sizes)
    violations: list[InvariantViolation] = []
    for index in range(n_cases):
        case = gen.stream_case(derive_seed(root_seed, "invariant", index))
        violations.extend(check_stream_case(case))
        violations.extend(check_scache(case))
        violations.extend(check_reuse(case))
        violations.extend(check_pricing(case))
    return violations


__all__ = [
    "InvariantViolation",
    "TINY_HIERARCHY",
    "check_pricing",
    "check_reuse",
    "check_scache",
    "check_stream_case",
    "oracle_costs",
    "priced_costs",
    "run_invariants",
]
