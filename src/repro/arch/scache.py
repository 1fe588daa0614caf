"""Stream Cache (Section 4.3).

The S-Cache sits next to L1 on top of L2 and holds, per stream
register, one 64-key (256 B) slot split into two sub-slots (double
buffering: one sub-slot refills from L2 while the other feeds an SU).
Stream keys never touch L1.  This class tracks slot state and counts
key movement (``scache.*`` counters); the actual key data stays in the
executor's numpy arrays.

Behaviour modelled from the paper:

* ``S_READ`` fetches the first 64 keys and sets the stream's *start*
  bit (the whole stream is resident only when it fits one slot).
* Compute results are written to the output stream's slot in groups of
  64; once a 65th key arrives, the previous group is written back to L2
  and the start bit clears.
* When the whole result is generated the *produced* bit is set,
  triggering dependents (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.counters import NULL_COUNTERS


@dataclass
class SlotState:
    """Per-stream-register slot bookkeeping."""

    resident_keys: int = 0       # keys currently in the slot (<= slot size)
    total_keys: int = 0          # architectural stream length
    holds_start: bool = False    # slot holds the first keys of the stream

    def reset(self) -> None:
        self.resident_keys = 0
        self.total_keys = 0
        self.holds_start = False


class StreamCache:
    """Slot-state model of the S-Cache."""

    def __init__(self, num_slots: int = 16, slot_keys: int = 64,
                 counters=NULL_COUNTERS):
        self.slot_keys = slot_keys
        self.slots = [SlotState() for _ in range(num_slots)]
        self.counters = counters

    def fill_initial(self, slot: int, stream_len: int) -> int:
        """``S_READ``: fetch the first slot's worth of keys.

        Returns the number of keys fetched now; the rest stream in on
        demand as the SU consumes (prefetched, Section 4.3)."""
        state = self.slots[slot]
        state.total_keys = stream_len
        state.resident_keys = min(stream_len, self.slot_keys)
        state.holds_start = True
        if self.counters.enabled:
            self.counters.inc("scache.fills")
            self.counters.add("scache.keys_fetched", state.resident_keys)
            self.counters.inc(f"scache.slot.{slot}.fills")
        return state.resident_keys

    def demand_refills(self, slot: int) -> int:
        """Number of further slot refills needed to stream the whole
        stream through the SU (beyond the initial fill)."""
        state = self.slots[slot]
        if state.total_keys <= self.slot_keys:
            return 0
        remaining = state.total_keys - self.slot_keys
        refills = -(-remaining // self.slot_keys)
        if self.counters.enabled:
            self.counters.add("scache.refills", refills)
            self.counters.add("scache.keys_fetched", remaining)
            self.counters.add(f"scache.slot.{slot}.refills", refills)
        return refills

    def write_result(self, slot: int, result_len: int) -> int:
        """Result of ``S_INTER``/``S_SUB``/``S_MERGE`` written in groups
        of 64 keys; returns the number of groups spilled to L2."""
        state = self.slots[slot]
        state.total_keys = result_len
        state.resident_keys = min(result_len, self.slot_keys)
        # The slot keeps the most recent 64 keys; earlier groups spill.
        spilled_groups = max(0, -(-result_len // self.slot_keys) - 1)
        state.holds_start = result_len <= self.slot_keys
        if self.counters.enabled:
            self.counters.add("scache.writebacks", spilled_groups)
            self.counters.add("scache.keys_written_back",
                              max(0, result_len - state.resident_keys))
        return spilled_groups

    def whole_stream_resident(self, slot: int) -> bool:
        """True when a dependent op can read the stream straight from
        the slot (result shorter than 64 keys, Section 4.4)."""
        state = self.slots[slot]
        resident = state.holds_start and state.total_keys <= self.slot_keys
        if self.counters.enabled:
            self.counters.inc(
                f"scache.slot.{slot}."
                + ("resident_hits" if resident else "resident_misses"))
        return resident

    def release(self, slot: int) -> None:
        self.slots[slot].reset()

    def reset(self) -> None:
        for s in self.slots:
            s.reset()
