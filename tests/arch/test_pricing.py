"""The access log's pricing pass against the per-access oracle.

:class:`~repro.arch.transfer.TransferModel` prices its log in chunks,
one :class:`~repro.arch.memory.LruLevel` at a time.  Every row must cost
what replaying the same rows one access at a time through
:class:`~repro.arch.memory.CacheHierarchy` and
:class:`~repro.arch.scratchpad.Scratchpad` costs — both machines'
cycles and the scratchpad-hit flag — and a probe must count what the
per-access models count, whatever the chunking.  The logs cover
repeats, resized hits that grow and shrink, zero-byte rows, granules
larger than each capacity, both priorities and the scratchpad's
oversize bypass, under a hierarchy where every level evicts, one whose
footprints cross their capacities mid-log, and Table 2's.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import transfer
from repro.arch.config import CacheConfig, SparseCoreConfig
from repro.arch.executor import StreamExecutor
from repro.arch.memory import LruBytes, LruLevel
from repro.arch.simmem import SimMemory
from repro.arch.transfer import PRIORITY, STREAM, VALUE, TransferModel
from repro.difftest.invariants import (TINY_HIERARCHY, oracle_costs,
                                       priced_costs)
from repro.isa.spec import Instruction, Opcode
from repro.machine import Machine
from repro.obs import Counters

#: Footprints here cross each capacity partway through a 100-row log.
CROSSING = SparseCoreConfig(
    scratchpad_bytes=256,
    cache=CacheConfig(l1d_bytes=512, l2_bytes=2048, l3_bytes=8192))

CONFIGS = {"tiny": TINY_HIERARCHY, "crossing": CROSSING,
           "paper": SparseCoreConfig()}

#: Zero, sub-line, one line, and sizes past every tiny/crossing level.
_SIZES = (0, 8, 24, 64, 72, 136, 264, 520, 1096, 2056, 9000)


@st.composite
def _logs(draw):
    n_granules = draw(st.integers(1, 14))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_granules - 1), st.sampled_from(_SIZES),
                  st.sampled_from((STREAM, PRIORITY, VALUE))),
        min_size=1, max_size=100))
    cuts = draw(st.sets(st.integers(1, len(rows) - 1)
                        if len(rows) > 1 else st.nothing()))
    return [(("g", g), b, k) for g, b, k in rows], sorted(cuts)


def _counted(rows, config, cuts):
    """Price ``rows`` in the given chunks under a counting log; returns
    the costs and the counters, each value with its type."""
    counters = Counters()
    log = TransferModel(config, counters)
    for i, (key, nbytes, kind) in enumerate(rows):
        if i in cuts:
            log.price()
        if kind == VALUE:
            log.load_values(key, nbytes)
        else:
            log.load_stream(key, nbytes, int(kind == PRIORITY))
    costs = [log.cost(r) for r in range(len(rows))]
    return ([(c.cpu_cycles, c.sc_cycles, c.scratchpad_hit) for c in costs],
            {k: (type(v), v) for k, v in counters.flat().items()}, log)


def _oracle(rows, config):
    counters = Counters()
    costs = oracle_costs(rows, config, counters)
    return costs, {k: (type(v), v) for k, v in counters.flat().items()}


def _assert_prices_like_oracle(rows, config, cuts=()):
    want, want_counters = _oracle(rows, config)
    got, got_counters, log = _counted(rows, config, set(cuts))
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, rows[i])
    assert got_counters == want_counters
    assert priced_costs(rows, config, cuts) == want
    return log


@pytest.mark.parametrize("config", CONFIGS, ids=list(CONFIGS))
@settings(max_examples=150, deadline=None)
@given(log=_logs())
def test_priced_log_equals_oracle(config, log):
    rows, cuts = log
    _assert_prices_like_oracle(rows, CONFIGS[config], cuts)


def _levels(log):
    return (log._scratchpad, *log._cpu, *log._sc)


class TestNamedLogs:
    def test_resized_hits_grow_and_shrink(self):
        # a grows past, then shrinks below, what b leaves room for:
        # an evicted a must come back as a miss, not a repeat.
        rows = [(("a",), 72, STREAM), (("b",), 64, STREAM),
                (("a",), 24, STREAM), (("a",), 136, PRIORITY),
                (("b",), 8, VALUE), (("a",), 8, PRIORITY)]
        for config in CONFIGS.values():
            for cut in range(len(rows)):
                _assert_prices_like_oracle(rows, config, [cut])

    def test_zero_byte_rows(self):
        rows = [(("a",), 0, PRIORITY), (("a",), 0, PRIORITY),
                (("b",), 0, STREAM), (("c",), 0, VALUE),
                (("a",), 64, PRIORITY), (("a",), 0, PRIORITY)]
        log = _assert_prices_like_oracle(rows, TINY_HIERARCHY)
        # A zero-byte priority load is installed, then hits.
        assert not log.scratchpad_hit(0) and log.scratchpad_hit(1)
        assert log.cost(2).cpu_cycles == log.cost(3).sc_cycles == 0.0

    def test_granules_larger_than_each_capacity(self):
        rows = [(("big", i % 3), size, kind)
                for i, (size, kind) in enumerate(
                    [(s, k) for s in (65, 129, 257, 513, 9000)
                     for k in (STREAM, PRIORITY, VALUE)] * 2)]
        _assert_prices_like_oracle(rows, TINY_HIERARCHY, [7, 20])

    def test_priorities_and_oversize_bypass(self):
        rows = [(("s",), 64, PRIORITY), (("s",), 64, STREAM),
                (("s",), 64, PRIORITY), (("o",), 72, PRIORITY),
                (("o",), 72, PRIORITY)]
        log = _assert_prices_like_oracle(rows, TINY_HIERARCHY)
        assert [log.scratchpad_hit(r) for r in range(5)] == [
            False, False, True, False, False]

    def test_every_level_evicts(self):
        rng = np.random.default_rng(3)
        rows = [(("g", int(rng.integers(0, 12))),
                 int(rng.choice(_SIZES)), int(rng.integers(0, 3)))
                for _ in range(400)]
        log = _assert_prices_like_oracle(rows, TINY_HIERARCHY, [50, 51, 300])
        assert all(level.evicts for level in _levels(log))

    def test_footprints_cross_capacity_mid_log(self):
        # Few small granules first (every level fits), then many.
        rows = [(("g", i % 3), 64, PRIORITY if i % 2 else VALUE)
                for i in range(60)]
        rows += [(("g", i), 200 + 8 * i, (STREAM, PRIORITY, VALUE)[i % 3])
                 for i in range(3, 60)]
        log = TransferModel(CROSSING)
        for key, nbytes, kind in rows[:60]:
            (log.load_values(key, nbytes) if kind == VALUE
             else log.load_stream(key, nbytes, int(kind == PRIORITY)))
        log.price()
        assert not any(level.evicts for level in _levels(log))
        log = _assert_prices_like_oracle(rows, CROSSING, [60, 90])
        assert all(level.evicts for level in _levels(log)[:-1])


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from((1, 64, 100, 1000)),
       accesses=st.lists(st.tuples(st.integers(0, 9),
                                   st.sampled_from((0, 1, 40, 64, 99, 2000))),
                         max_size=60),
       cuts=st.sets(st.integers(0, 60)))
def test_level_answers_like_lru_bytes(capacity, accesses, cuts):
    lru, level = LruBytes(capacity), LruLevel(capacity)
    want = [lru.access(g, b) for g, b in accesses]
    bounds = [0, *sorted(c for c in cuts if 0 < c < len(accesses)),
              len(accesses)]
    got = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = np.array(accesses[lo:hi], dtype=np.int64).reshape(-1, 2)
        got += level.hits(chunk[:, 0], chunk[:, 1]).tolist()
    assert got == want
    if level.evicts:
        assert level._lru == OrderedDict(lru._entries)


# -- each op's charge sums its rows in the documented order ----------------


def I(opcode, *ops):
    return Instruction(opcode, tuple(ops))


def _fold(costs, rows, side):
    total = 0.0
    for row in rows:
        total += costs[row][side]
    return total


@pytest.fixture
def thirds(monkeypatch):
    """Gathers overlapped three ways: SparseCore's gather charges are
    thirds, so the order of a sum shows in its last bits."""
    monkeypatch.setattr(transfer, "VALUE_GATHER_MLP", 3.0)


#: Value streams whose load and gather charges, summed in the documented
#: order, differ in the last bit from the sums in the other orders below.
_A = (np.arange(0, 70, 2, dtype=np.int64), np.linspace(0.5, 3.0, 35))
_B = (np.arange(5, dtype=np.int64), np.linspace(1.0, 2.0, 5))

#: Rows: a's load, b's load, a's gather, b's gather.
_LOADS_FIRST, _GATHERS_FIRST = (0, 1, 2, 3), (2, 3, 0, 1)


def _assert_charged(machine, frozen, order, wrong):
    """The one op is charged its rows' costs summed in ``order``, which
    differs in the last bit from every order in ``wrong``."""
    costs = oracle_costs(machine.transfer.rows(), machine.config)
    assert frozen.cpu_mem.tolist() == [_fold(costs, order, 0)]
    assert frozen.sc_mem.tolist() == [_fold(costs, order, 1)]
    for other in wrong:
        assert frozen.sc_mem[0] != _fold(costs, other, 1), other


@pytest.mark.usefixtures("thirds")
class TestChargeOrder:
    """Gathers then pending loads on the machine, pending loads then
    gathers in the executor (each as it summed them per access)."""

    def test_vinter(self):
        m = Machine()
        a = m.load_values(*_A, ("a", 0))
        m.vinter(a, m.load_values(*_B, ("b", 0)))
        _assert_charged(m, m.freeze(), _GATHERS_FIRST,
                        [_LOADS_FIRST, (0, 2, 3, 1), (2, 0, 3, 1)])

    def test_vinter_sweep(self):
        m = Machine()
        m.vinter_sweep(m.sweep_streams([_A[0]], [_A[1]], [("a", 0)]),
                       m.sweep_streams([_B[0]], [_B[1]], [("b", 0)]))
        _assert_charged(m, m.freeze(), _GATHERS_FIRST,
                        [_LOADS_FIRST, (0, 2, 3, 1), (2, 0, 3, 1)])

    def test_executor(self):
        mem = SimMemory()
        ex = StreamExecutor(mem)
        for sid, (keys, vals) in enumerate((_A, _B)):
            ex.execute(I(Opcode.S_VREAD, mem.register(keys, f"k{sid}"),
                         keys.size, sid, mem.register(vals, f"v{sid}"), 0))
        ex.execute(I(Opcode.S_VINTER, 0, 1, "F0", "MAC"))
        _assert_charged(ex, ex.trace.freeze(), _LOADS_FIRST,
                        [_GATHERS_FIRST])
