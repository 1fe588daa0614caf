"""Unit tests for the priority-gated stream-reuse scratchpad
(Section 4.2)."""

from repro.arch.scratchpad import Scratchpad
from repro.obs import Counters


class TestPriorityGate:
    def test_priority_zero_always_bypasses(self):
        counters = Counters()
        sp = Scratchpad(counters=counters)
        assert not sp.access(("s", 1), 100, priority=0)
        assert not sp.access(("s", 1), 100, priority=0)  # even re-touch
        assert counters.get("scratchpad.bypasses") == 2
        assert counters.get("scratchpad.pin_hits") == 0
        assert sp.used_bytes == 0

    def test_priority_one_miss_then_hit(self):
        counters = Counters()
        sp = Scratchpad(counters=counters)
        assert not sp.access(("s", 1), 100, priority=1)  # cold
        assert sp.access(("s", 1), 100, priority=1)      # warm
        assert counters.get("scratchpad.misses") == 1
        assert counters.get("scratchpad.pin_hits") == 1

    def test_bypassed_granule_not_installed(self):
        sp = Scratchpad()
        sp.access(("s", 1), 100, priority=0)
        # A later prioritized access still misses: bypass left nothing.
        assert not sp.access(("s", 1), 100, priority=1)


class TestCapacity:
    def test_oversized_granule_misses_without_install(self):
        counters = Counters()
        sp = Scratchpad(capacity_bytes=1024, counters=counters)
        assert not sp.access(("big",), 4096, priority=1)
        assert not sp.access(("big",), 4096, priority=1)
        assert counters.get("scratchpad.misses") == 2
        assert sp.used_bytes == 0

    def test_lru_eviction_under_pressure(self):
        sp = Scratchpad(capacity_bytes=1000)
        sp.access(("a",), 600, priority=1)
        sp.access(("b",), 600, priority=1)  # evicts a
        assert sp.access(("b",), 600, priority=1)
        assert not sp.access(("a",), 600, priority=1)  # was evicted

    def test_used_bytes_tracks_contents(self):
        sp = Scratchpad(capacity_bytes=1000)
        sp.access(("a",), 300, priority=1)
        sp.access(("b",), 400, priority=1)
        assert sp.used_bytes == 700


class TestStats:
    def test_hit_rate(self):
        counters = Counters()
        sp = Scratchpad(counters=counters)
        sp.access(("a",), 10, priority=1)
        sp.access(("a",), 10, priority=1)
        sp.access(("a",), 10, priority=1)
        hits = counters.get("scratchpad.pin_hits")
        assert hits / (hits + counters.get("scratchpad.misses")) == 2 / 3
        assert counters.get("scratchpad.bytes_served") == 20

    def test_reset(self):
        sp = Scratchpad()
        sp.access(("a",), 10, priority=1)
        sp.reset()
        assert sp.used_bytes == 0
        assert not sp.access(("a",), 10, priority=1)  # cold again
