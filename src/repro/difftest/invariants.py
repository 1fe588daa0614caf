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
  the scratchpad is free on SparseCore the second time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.scache import StreamCache
from repro.arch.stream_unit import StreamUnit
from repro.arch.transfer import TransferModel
from repro.difftest.generator import CaseGenerator, Sizes, derive_seed
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
        cold = transfer.load_stream(granule, nbytes, inp.priority)
        warm = transfer.load_stream(granule, nbytes, inp.priority)
        if warm.sc_cycles > cold.sc_cycles \
                or warm.cpu_cycles > cold.cpu_cycles:
            violations.append(InvariantViolation(
                "reuse.warm_cost", case.seed,
                f"warm load ({warm.cpu_cycles}, {warm.sc_cycles}) dearer "
                f"than cold ({cold.cpu_cycles}, {cold.sc_cycles})"))
        if inp.priority > 0 and nbytes <= transfer.scratchpad.capacity \
                and warm.sc_cycles != 0.0:
            violations.append(InvariantViolation(
                "reuse.scratchpad", case.seed,
                f"priority-{inp.priority} granule of {nbytes} B not "
                f"scratchpad-resident on re-load"))
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
    return violations


__all__ = [
    "InvariantViolation",
    "check_reuse",
    "check_scache",
    "check_stream_case",
    "run_invariants",
]
