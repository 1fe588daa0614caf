"""Tests for the LRU cache-hierarchy model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import CacheConfig
from repro.arch.memory import CacheHierarchy, LruBytes
from repro.obs import Counters


class TestLruBytes:
    def test_hit_after_insert(self):
        lru = LruBytes(100)
        assert lru.access(("a",), 10) is False
        assert lru.access(("a",), 10) is True

    def test_eviction_order(self):
        lru = LruBytes(100)
        lru.access(("a",), 60)
        lru.access(("b",), 60)  # evicts a
        assert lru.access(("a",), 60) is False
        assert lru.access(("b",), 60) is False  # b evicted by a's reinsert

    def test_touch_refreshes(self):
        lru = LruBytes(100)
        lru.access(("a",), 40)
        lru.access(("b",), 40)
        lru.access(("a",), 40)  # refresh a
        lru.access(("c",), 40)  # evicts b
        assert lru.contains(("a",))
        assert not lru.contains(("b",))

    def test_oversize_granule_clamped(self):
        lru = LruBytes(100)
        lru.access(("big",), 500)
        assert lru.used_bytes <= 100

    def test_clear(self):
        lru = LruBytes(100)
        lru.access(("a",), 10)
        lru.clear()
        assert lru.used_bytes == 0
        assert not lru.contains(("a",))


class TestCacheHierarchy:
    def config(self):
        return CacheConfig(l1d_bytes=256, l2_bytes=1024, l3_bytes=4096)

    def test_first_access_is_dram(self):
        counters = Counters()
        h = CacheHierarchy(self.config(), counters=counters)
        cost = h.access(("v", 1), 64)
        assert cost == h.config.dram_latency
        assert counters.get("mem.dram_accesses") == 1

    def test_second_access_is_l1(self):
        counters = Counters()
        h = CacheHierarchy(self.config(), counters=counters)
        h.access(("v", 1), 64)
        cost = h.access(("v", 1), 64)
        assert cost == h.config.l1_latency
        assert counters.get("mem.l1_hits") == 1

    def test_l2_hit_after_l1_eviction(self):
        counters = Counters()
        h = CacheHierarchy(self.config(), counters=counters)
        h.access(("v", 1), 128)
        for i in range(2, 6):
            h.access(("v", i), 128)  # push v1 out of the 256B L1
        cost = h.access(("v", 1), 128)
        assert cost == h.config.l2_latency + 1 * h.config.l2_line_cost
        assert counters.get("mem.l2_hits") >= 1

    def test_no_l1_mode(self):
        h = CacheHierarchy(self.config(), use_l1=False)
        h.access(("v", 1), 64)
        cost = h.access(("v", 1), 64)
        assert cost == h.config.l2_latency

    def test_multi_line_cost(self):
        h = CacheHierarchy(self.config())
        cost = h.access(("v", 1), 64 * 4)  # 4 lines, cold
        assert cost == h.config.dram_latency + 3 * h.config.dram_line_cost

    def test_zero_bytes_free(self):
        counters = Counters()
        h = CacheHierarchy(self.config(), counters=counters)
        assert h.access(("v", 1), 0) == 0.0
        assert h.access_pipelined(("v", 1), 0) == 0.0
        assert counters.flat() == {}

    def test_pipelined_access_cheaper_than_demand(self):
        h1 = CacheHierarchy(self.config(), use_l1=False)
        h2 = CacheHierarchy(self.config(), use_l1=False)
        demand = h1.access(("v", 1), 256)
        prefetch = h2.access_pipelined(("v", 1), 256)
        assert prefetch < demand

    def test_pipelined_l2_hit(self):
        h = CacheHierarchy(self.config(), use_l1=False)
        h.access_pipelined(("v", 1), 64)
        cost = h.access_pipelined(("v", 1), 64)
        assert cost == h.config.l2_line_cost

    def test_lines_for(self):
        h = CacheHierarchy(self.config())
        assert h.lines_for(0) == 0
        assert h.lines_for(1) == 1
        assert h.lines_for(64) == 1
        assert h.lines_for(65) == 2

    def test_reset(self):
        h = CacheHierarchy(self.config())
        h.access(("v", 1), 64)
        h.reset()
        assert h.access(("v", 1), 64) == h.config.dram_latency


class _PopReinsertLru:
    """The reference LRU: every access pops the key and re-inserts it."""

    def __init__(self, capacity_bytes):
        self.capacity = capacity_bytes
        self._entries = OrderedDict()
        self._used = 0

    def access(self, key, nbytes):
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry
        nbytes = min(nbytes, self.capacity)
        while self._used + nbytes > self.capacity and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
        self._entries[key] = nbytes
        self._used += nbytes
        return entry is not None


#: (key, bytes) accesses over a few keys, so keys repeat and a hit may
#: change a granule's size; 0 bytes and more than the capacity included.
_ACCESSES = st.lists(
    st.tuples(st.integers(0, 6),
              st.one_of(st.sampled_from([0, 1, 40, 100, 101, 500]),
                        st.integers(0, 130))),
    max_size=60)


class TestLruBytesAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.sampled_from([0, 1, 64, 100, 256]),
           accesses=_ACCESSES)
    def test_same_hits_bytes_and_order(self, capacity, accesses):
        lru, ref = LruBytes(capacity), _PopReinsertLru(capacity)
        for key, nbytes in accesses:
            assert lru.access(("g", key), nbytes) == \
                ref.access(("g", key), nbytes)
            assert lru.used_bytes == ref._used
            assert list(lru._entries.items()) == list(ref._entries.items())
