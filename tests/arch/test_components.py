"""Tests for stream registers, GFRs, S-Cache, scratchpad, transfer model."""

import pytest

from repro.arch.config import SparseCoreConfig
from repro.arch.scache import StreamCache
from repro.arch.scratchpad import Scratchpad
from repro.arch.stream_regs import GraphFormatRegisters, StreamRegisterFile
from repro.arch.transfer import TransferModel
from repro.errors import GfrNotLoadedFault
from repro.obs import Counters


class TestStreamRegisterFile:
    def test_setup_and_release(self):
        regs = StreamRegisterFile(16)
        reg = regs.setup(3, stream_id=7, length=100, key_addr=0x1000,
                         value_addr=0x2000, priority=1)
        assert reg.valid and reg.has_values
        assert regs[3].stream_id == 7
        regs.release(3)
        assert not regs[3].valid
        assert regs[3].value_addr == -1

    def test_key_only_stream(self):
        regs = StreamRegisterFile(16)
        reg = regs.setup(0, stream_id=1, length=4, key_addr=0)
        assert not reg.has_values

    def test_sixteen_default(self):
        assert len(StreamRegisterFile(16)) == 16


class TestGfrs:
    def test_load_and_read(self):
        gfrs = GraphFormatRegisters()
        gfrs.load(10, 20, 30)
        assert (gfrs.csr_index, gfrs.csr_edges, gfrs.csr_offsets) == (10, 20, 30)
        assert gfrs.loaded

    def test_unloaded_raises(self):
        gfrs = GraphFormatRegisters()
        with pytest.raises(GfrNotLoadedFault):
            _ = gfrs.csr_index

    def test_reset(self):
        gfrs = GraphFormatRegisters()
        gfrs.load(1, 2, 3)
        gfrs.reset()
        assert not gfrs.loaded


class TestStreamCache:
    def test_initial_fill_short_stream(self):
        sc = StreamCache(slot_keys=64)
        fetched = sc.fill_initial(0, 10)
        assert fetched == 10
        assert sc.whole_stream_resident(0)
        assert sc.demand_refills(0) == 0

    def test_initial_fill_long_stream(self):
        sc = StreamCache(slot_keys=64)
        fetched = sc.fill_initial(0, 200)
        assert fetched == 64
        assert not sc.whole_stream_resident(0)
        # 200 keys: 64 initial + ceil(136/64) = 3 refills.
        assert sc.demand_refills(0) == 3

    def test_result_within_slot_no_spill(self):
        sc = StreamCache(slot_keys=64)
        assert sc.write_result(1, 30) == 0
        assert sc.whole_stream_resident(1)

    def test_long_result_spills_groups(self):
        # "If the result stream contains more than 64 keys, the slot will
        # contain the most recently produced 64 keys while the previous
        # slot is written back to L2 and the start bit is cleared."
        counters = Counters()
        sc = StreamCache(slot_keys=64, counters=counters)
        spills = sc.write_result(1, 200)
        assert spills == 3
        assert not sc.whole_stream_resident(1)
        assert counters.get("scache.writebacks") == 3

    def test_release(self):
        sc = StreamCache(slot_keys=64)
        sc.fill_initial(2, 10)
        sc.release(2)
        assert not sc.whole_stream_resident(2)


class TestScratchpad:
    def test_priority_zero_bypasses(self):
        counters = Counters()
        sp = Scratchpad(1024, counters=counters)
        assert sp.access(("a",), 100, priority=0) is False
        assert sp.access(("a",), 100, priority=0) is False
        assert counters.get("scratchpad.bypasses") == 2

    def test_priority_stream_hits_on_reuse(self):
        counters = Counters()
        sp = Scratchpad(1024, counters=counters)
        assert sp.access(("a",), 100, priority=1) is False
        assert sp.access(("a",), 100, priority=1) is True
        assert counters.get("scratchpad.pin_hits") == 1
        assert counters.get("scratchpad.misses") == 1

    def test_oversize_stream_never_cached(self):
        sp = Scratchpad(1024)
        assert sp.access(("big",), 2048, priority=1) is False
        assert sp.access(("big",), 2048, priority=1) is False

    def test_capacity_eviction(self):
        sp = Scratchpad(1024)
        sp.access(("a",), 600, priority=1)
        sp.access(("b",), 600, priority=1)  # evicts a
        assert sp.access(("a",), 600, priority=1) is False


class TestTransferModel:
    def test_sparsecore_cheaper_on_cold_stream(self):
        tm = TransferModel(SparseCoreConfig())
        cost = tm.cost(tm.load_stream(("edges", 5), 256, priority=0))
        # Prefetched pipelined fetch beats demand-latency fetch.
        assert cost.sc_cycles < cost.cpu_cycles

    def test_scratchpad_hit_is_free(self):
        tm = TransferModel(SparseCoreConfig())
        tm.load_stream(("edges", 5), 256, priority=1)
        cost = tm.cost(tm.load_stream(("edges", 5), 256, priority=1))
        assert cost.sc_cycles == 0.0
        assert cost.scratchpad_hit

    def test_empty_stream_is_not_a_scratchpad_hit(self):
        # A zero-byte load (an empty edge list) costs nothing on the
        # pipelined path, but the scratchpad missed it.
        counters = Counters()
        tm = TransferModel(SparseCoreConfig(), counters)
        cost = tm.cost(tm.load_stream(("edges", 0, 7), 0, priority=1))
        assert cost.sc_cycles == 0.0
        assert not cost.scratchpad_hit
        assert counters.get("scratchpad.misses") == 1
        assert counters.get("scratchpad.pin_hits") == 0

    def test_value_loads_charged_on_both(self):
        tm = TransferModel(SparseCoreConfig())
        cost = tm.cost(tm.load_values(("vals", 1), 512))
        assert cost.cpu_cycles > 0
        assert cost.sc_cycles > 0

