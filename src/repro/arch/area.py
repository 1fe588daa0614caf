"""Published physical characteristics and fairness accounting (§5.2, §6.3.1).

The paper synthesizes its components (Chisel + Design Compiler,
15 nm open cell library; SRAMs via CACTI at 22 nm) and reports the
numbers below.  They are *inputs* to the evaluation's fairness argument
— one FlexMiner PE, one TrieJax thread, and one SparseCore SU occupy
comparable silicon — not outputs of the performance model, so this
module simply records them and provides the area-normalized comparison
the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import SparseCoreConfig

#: Synthesized frequency of the stream components (Section 5.2): high
#: enough that the extension "will not affect the latency of the
#: baseline processor".
SPARSECORE_FREQUENCY_GHZ = 4.35

#: Total area of S-Cache (12 slots) + 4 SUs + SMT + scratchpad + Sregs.
SPARSECORE_TOTAL_MM2 = 0.73

#: Average area per SU including its share of shared components.
SPARSECORE_PER_SU_MM2 = 0.183

#: Skylake server core (14 nm) for scale (Section 5.2).
SKYLAKE_CORE_MM2 = 15.0

#: FlexMiner PE without its shared 4 MB cache (Section 6.3.1).
FLEXMINER_PE_MM2 = 0.18

#: TrieJax: 5.31 mm^2 for 32 internal threads (Section 6.3.1).
TRIEJAX_TOTAL_MM2 = 5.31
TRIEJAX_THREADS = 32
TRIEJAX_PER_THREAD_MM2 = TRIEJAX_TOTAL_MM2 / TRIEJAX_THREADS


@dataclass(frozen=True)
class AreaComparison:
    """Per-compute-unit silicon of the compared designs (mm^2)."""

    sparsecore_su: float = SPARSECORE_PER_SU_MM2
    flexminer_pe: float = FLEXMINER_PE_MM2
    triejax_thread: float = TRIEJAX_PER_THREAD_MM2

    def max_disparity(self) -> float:
        """Largest per-unit area ratio — the fairness check: the paper
        compares one unit of each precisely because these are close."""
        units = [self.sparsecore_su, self.flexminer_pe,
                 self.triejax_thread]
        return max(units) / min(units)

    def rows(self) -> list[dict]:
        return [
            {"design": "SparseCore SU (incl. shared)",
             "area_mm2": self.sparsecore_su},
            {"design": "FlexMiner PE (excl. 4MB cache)",
             "area_mm2": self.flexminer_pe},
            {"design": "TrieJax thread",
             "area_mm2": round(self.triejax_thread, 4)},
        ]


# -- modelled area for swept configurations ---------------------------------
#
# The design-space explorer (:mod:`repro.explore`) needs an area for
# configurations the paper never synthesized.  We decompose the
# published 0.73 mm^2 into component shares (a modelling assumption,
# stated here once) and scale the SU array with the SU count and the
# S-Cache with its bandwidth, relative to the Table 2 default — the two
# hardware fields a sweep may vary (the other sweep axes are timing
# constants, not silicon).  The default configuration reproduces
# :data:`SPARSECORE_TOTAL_MM2` exactly and both knobs move area
# monotonically in the direction real silicon would.

#: Fraction of the extension's area in the SU array (width-16 compare
#: lanes dominate; scales with SU count).
SU_AREA_SHARE = 0.55
#: S-Cache share (SRAM macro + read ports; half of it scales with the
#: aggregate bandwidth it must sustain, half is the fixed slot array).
SCACHE_AREA_SHARE = 0.25
#: Scratchpad SRAM share (fixed 16 KB).
SCRATCHPAD_AREA_SHARE = 0.12
#: SMT + stream registers + control (fixed).
FIXED_AREA_SHARE = 0.08

#: The synthesized Table 2 point the modelled area scales around, built
#: once: the explorer asks for an area at every grid point.
_TABLE2_SPARSECORE = SparseCoreConfig()


def sparsecore_area_mm2(config=None) -> float:
    """Modelled silicon of the stream extension for one configuration.

    First-order scaling of the SU and S-Cache shares around the
    synthesized Table 2 point; by construction
    ``sparsecore_area_mm2(SparseCoreConfig()) == SPARSECORE_TOTAL_MM2``.
    This is the cost axis of the explorer's Pareto fronts (cycles vs.
    area), so it answers to the same fields as the cycles do.
    """
    cfg = config if config is not None else _TABLE2_SPARSECORE
    default = _TABLE2_SPARSECORE
    su = SU_AREA_SHARE * (cfg.num_sus / default.num_sus)
    scache = SCACHE_AREA_SHARE * (
        0.5 * cfg.scache_bandwidth / default.scache_bandwidth + 0.5)
    return SPARSECORE_TOTAL_MM2 * (su + scache + SCRATCHPAD_AREA_SHARE
                                   + FIXED_AREA_SHARE)


def area_normalized_speedup(speedup: float, own_area: float,
                            other_area: float) -> float:
    """Speedup per unit silicon relative to the other design."""
    return speedup * (other_area / own_area)


def extension_overhead_vs_core() -> float:
    """The whole stream extension as a fraction of a server core."""
    return SPARSECORE_TOTAL_MM2 / SKYLAKE_CORE_MM2
