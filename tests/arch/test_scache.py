"""Unit tests for the S-Cache slot model (Section 4.3)."""

import pytest

from repro.arch.scache import StreamCache
from repro.obs import Counters


class TestFillInitial:
    def test_short_stream_fully_resident(self):
        sc = StreamCache()
        assert sc.fill_initial(0, 10) == 10
        assert sc.whole_stream_resident(0)

    def test_long_stream_caps_at_slot(self):
        sc = StreamCache()
        assert sc.fill_initial(0, 1000) == sc.slot_keys
        assert not sc.whole_stream_resident(0)

    def test_exact_slot_boundary_is_resident(self):
        sc = StreamCache()
        assert sc.fill_initial(0, sc.slot_keys) == sc.slot_keys
        assert sc.whole_stream_resident(0)

    def test_empty_stream(self):
        sc = StreamCache()
        assert sc.fill_initial(0, 0) == 0
        assert sc.whole_stream_resident(0)

    def test_stats_track_fetches(self):
        counters = Counters()
        sc = StreamCache(counters=counters)
        sc.fill_initial(0, 10)
        sc.fill_initial(1, 100)
        assert counters.get("scache.fills") == 2
        assert counters.get("scache.keys_fetched") == 10 + sc.slot_keys


class TestDemandRefills:
    @pytest.mark.parametrize("length,expect", [
        (0, 0), (1, 0), (64, 0),      # fits the slot: no refills
        (65, 1), (128, 1),            # one more slot's worth
        (129, 2), (64 * 5, 4), (64 * 5 + 1, 5),
    ])
    def test_refill_count(self, length, expect):
        sc = StreamCache()  # slot_keys = 64
        sc.fill_initial(3, length)
        assert sc.demand_refills(3) == expect

    def test_refills_add_to_stats(self):
        counters = Counters()
        sc = StreamCache(counters=counters)
        sc.fill_initial(0, 200)
        sc.demand_refills(0)
        assert counters.get("scache.keys_fetched") == 200
        # 1 initial fill + ceil(136 / 64) = 3 refills.
        assert counters.get("scache.fills") \
            + counters.get("scache.refills") == 4


class TestWriteResult:
    def test_short_result_no_spill(self):
        counters = Counters()
        sc = StreamCache(counters=counters)
        assert sc.write_result(0, 30) == 0
        assert sc.whole_stream_resident(0)
        assert counters.get("scache.writebacks") == 0

    def test_long_result_spills_groups(self):
        counters = Counters()
        sc = StreamCache(counters=counters)
        # 150 keys = 3 groups of 64; the newest stays, 2 spill.
        assert sc.write_result(0, 150) == 2
        assert not sc.whole_stream_resident(0)
        assert counters.get("scache.keys_written_back") \
            == 150 - sc.slot_keys

    def test_release_clears_slot(self):
        sc = StreamCache()
        sc.write_result(0, 30)
        sc.release(0)
        assert not sc.whole_stream_resident(0)
        assert sc.slots[0].total_keys == 0

    def test_reset_clears_everything(self):
        sc = StreamCache()
        sc.fill_initial(0, 500)
        sc.write_result(1, 500)
        sc.reset()
        assert all(s.total_keys == 0 for s in sc.slots)
        assert not any(s.holds_start for s in sc.slots)


class TestSlotIndependence:
    def test_slots_do_not_interfere(self):
        sc = StreamCache()
        sc.fill_initial(0, 10)
        sc.fill_initial(1, 1000)
        assert sc.whole_stream_resident(0)
        assert not sc.whole_stream_resident(1)
        assert sc.demand_refills(0) == 0
        assert sc.demand_refills(1) > 0
