"""Tests for the trace container and the CPU/SparseCore cost models."""

import dataclasses
import io
import zipfile

import numpy as np
import pytest

from repro.arch import CpuModel, SparseCoreModel, Trace
from repro.arch.config import CpuConfig, SparseCoreConfig, config_variant
from repro.arch.sparsecore import SEGMENT_MEMO_ENTRIES
from repro.arch.trace import (
    _ARRAY_FIELDS,
    NO_BURST,
    FrozenTrace,
    OpKind,
)
from repro.streams.runstats import analyze_pair


def keys(*xs):
    return np.array(xs, dtype=np.int64)


def sample_stats(n=32, seed=0):
    rng = np.random.default_rng(seed)
    a = np.unique(rng.integers(0, 4 * n, n)).astype(np.int64)
    b = np.unique(rng.integers(0, 4 * n, n)).astype(np.int64)
    return analyze_pair(a, b)


class TestTrace:
    def test_add_op_and_freeze(self):
        t = Trace("t")
        st = sample_stats()
        t.add_op(OpKind.INTERSECT, st, cpu_mem=10.0, sc_mem=2.0)
        t.add_scalar(100)
        f = t.freeze()
        assert f.num_ops == 1
        assert f.cpu_mem[0] == 10.0
        assert f.shared_scalar_instrs == 100

    def test_freeze_cached_and_invalidated(self):
        t = Trace()
        t.add_op(OpKind.MERGE, sample_stats())
        f1 = t.freeze()
        assert t.freeze() is f1
        t.add_op(OpKind.MERGE, sample_stats())
        assert t.freeze() is not f1
        assert t.freeze().num_ops == 2

    def test_burst_ids_unique(self):
        t = Trace()
        assert t.new_burst() != t.new_burst()


class TestCpuModel:
    def test_empty_trace_zero(self):
        rep = CpuModel().cost(Trace())
        assert rep.total_cycles == 0.0

    def test_breakdown_sums_to_one(self):
        t = Trace()
        for i in range(10):
            t.add_op(OpKind.INTERSECT, sample_stats(seed=i), cpu_mem=50.0)
        t.add_scalar(1000)
        rep = CpuModel().cost(t)
        assert rep.total_cycles > 0
        assert sum(rep.breakdown().values()) == pytest.approx(1.0)

    def test_mispredictions_dominate_interleaved_streams(self):
        """The paper's key CPU observation (Figure 9): data-dependent
        branches make misprediction a large share of CPU time."""
        t = Trace()
        a = keys(*range(0, 400, 2))
        b = keys(*range(1, 400, 2))  # perfectly interleaved: all changes
        t.add_op(OpKind.INTERSECT, analyze_pair(a, b))
        rep = CpuModel().cost(t)
        assert rep.breakdown()["Mispred."] > 0.3

    def test_value_flops_charged(self):
        t1, t2 = Trace(), Trace()
        st = sample_stats()
        t1.add_op(OpKind.VINTER, st, flop_pairs=0)
        t2.add_op(OpKind.VINTER, st, flop_pairs=100)
        assert CpuModel().cost(t2).total_cycles > CpuModel().cost(t1).total_cycles


class TestSparseCoreModel:
    def test_empty_trace_zero(self):
        rep = SparseCoreModel().cost(Trace())
        assert rep.total_cycles == 0.0

    def test_faster_than_cpu_on_typical_ops(self):
        t = Trace()
        for i in range(50):
            t.add_op(OpKind.INTERSECT, sample_stats(n=64, seed=i),
                     cpu_mem=60.0, sc_mem=8.0)
        sc = SparseCoreModel().cost(t)
        cpu = CpuModel().cost(t)
        # speedup_over reports how much faster *this* machine is.
        assert sc.speedup_over(cpu) > 3.0
        assert cpu.speedup_over(sc) < 1.0

    def test_more_sus_helps_bursts(self):
        t = Trace()
        burst = t.new_burst()
        for i in range(16):
            t.add_op(OpKind.INTERSECT, sample_stats(n=64, seed=i),
                     burst=burst, nested=True)
        one = SparseCoreModel(SparseCoreConfig(num_sus=1)).cost(t)
        four = SparseCoreModel(SparseCoreConfig(num_sus=4)).cost(t)
        assert four.total_cycles < one.total_cycles

    def test_sus_do_not_help_serial_singletons(self):
        cfg1 = SparseCoreConfig(num_sus=1, implicit_overlap=1)
        cfg8 = SparseCoreConfig(num_sus=8, implicit_overlap=1)
        t = Trace()
        for i in range(16):
            t.add_op(OpKind.INTERSECT, sample_stats(n=64, seed=i))
        assert (SparseCoreModel(cfg8).cost(t).total_cycles
                == SparseCoreModel(cfg1).cost(t).total_cycles)

    def test_bandwidth_limits_bursts(self):
        t = Trace()
        burst = t.new_burst()
        for i in range(16):
            t.add_op(OpKind.INTERSECT, sample_stats(n=256, seed=i),
                     burst=burst, nested=True)
        slow = SparseCoreModel(SparseCoreConfig(scache_bandwidth=2)).cost(t)
        fast = SparseCoreModel(SparseCoreConfig(scache_bandwidth=64)).cost(t)
        assert slow.total_cycles > fast.total_cycles

    def test_diminishing_returns_with_many_sus(self):
        """Figure 12: beyond ~4 SUs the longest op dominates bursts."""
        t = Trace()
        burst = t.new_burst()
        for i in range(8):
            t.add_op(OpKind.INTERSECT, sample_stats(n=64, seed=i),
                     burst=burst, nested=True)
        times = {
            n: SparseCoreModel(SparseCoreConfig(num_sus=n)).cost(t).total_cycles
            for n in (1, 4, 16)
        }
        gain_1_to_4 = times[1] / times[4]
        gain_4_to_16 = times[4] / times[16]
        assert gain_1_to_4 > gain_4_to_16

    def test_other_computation_partially_hidden(self):
        t = Trace()
        t.add_op(OpKind.INTERSECT, sample_stats(n=512))
        t.add_scalar(100)
        rep = SparseCoreModel().cost(t)
        raw_other = 100 * SparseCoreConfig().scalar_cpi
        assert rep.other_cycles < raw_other

    def test_nested_ops_cheaper_issue(self):
        st = sample_stats(n=64)
        plain = Trace()
        nested = Trace()
        for i in range(20):
            plain.add_op(OpKind.INTERSECT, st)
        b = nested.new_burst()
        for i in range(20):
            nested.add_op(OpKind.INTERSECT, st, burst=b, nested=True)
        model = SparseCoreModel()
        assert (model.cost(nested).total_cycles
                < model.cost(plain).total_cycles)

    def test_config_sweep_helpers(self):
        cfg = SparseCoreConfig()
        assert config_variant(cfg, "num_sus", 8).num_sus == 8
        assert config_variant(cfg, "scache_bandwidth", 64) \
            .scache_bandwidth == 64
        # original untouched (frozen dataclass)
        assert cfg.num_sus == 4


def mixed_trace() -> Trace:
    """Singleton runs between nested bursts, every op kind, value FLOPs
    that outweigh some ops' SU walk, and memory stalls."""
    t = Trace("mixed")
    kinds = list(OpKind)
    for block in range(4):
        for i in range(5):
            kind = kinds[(block + i) % len(kinds)]
            t.add_op(kind, sample_stats(n=16 + 8 * i, seed=10 * block + i),
                     sc_mem=float(i), cpu_mem=3.0 * i,
                     flop_pairs=40 * i if kind >= OpKind.VINTER else 0)
        burst = t.new_burst()
        for i in range(4):
            t.add_op(OpKind.INTERSECT, sample_stats(n=64, seed=50 + i),
                     burst=burst, nested=True, sc_mem=1.5)
    t.add_scalar(300)
    t.add_sc_scalar(40)
    return t


def burst_only_trace() -> Trace:
    t = Trace("bursts")
    for b in range(3):
        burst = t.new_burst()
        for i in range(6):
            t.add_op(OpKind.VINTER, sample_stats(n=32, seed=b * 6 + i),
                     burst=burst, nested=True, flop_pairs=25 * i)
    return t


#: Configs priced on a trace before the one under test: enough distinct
#: segment keys to evict, then the keys the tested configs hit, each
#: reached first by a config that differs in other fields.
WARM_CONFIGS = [
    *(SparseCoreConfig(implicit_overlap=n, flop_cycles_per_pair=f)
      for n in range(1, SEGMENT_MEMO_ENTRIES + 3) for f in (0.5, 3.0)),
    SparseCoreConfig(num_sus=1, scalar_cpi=0.1),
    SparseCoreConfig(implicit_overlap=4, scache_bandwidth=2),
    SparseCoreConfig(flop_cycles_per_pair=2.0, op_issue_cycles=7.0),
]


class TestSegmentMemo:
    @pytest.mark.parametrize("build", [mixed_trace, Trace, burst_only_trace],
                             ids=["mixed", "empty", "burst-only"])
    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(SparseCoreConfig)
        if f.name != "cache"])
    def test_reused_trace_prices_like_a_fresh_one(self, field, build):
        base = SparseCoreConfig()
        config = dataclasses.replace(base,
                                     **{field: getattr(base, field) * 2})
        shared = build().freeze()
        for warm in WARM_CONFIGS:
            SparseCoreModel(warm).cost(shared)
        assert len(shared._segments) <= SEGMENT_MEMO_ENTRIES
        fresh = FrozenTrace(**{f.name: getattr(shared, f.name)
                               for f in dataclasses.fields(FrozenTrace)
                               if f.init})
        got = SparseCoreModel(config).cost(shared)
        want = SparseCoreModel(config).cost(fresh)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_memo_is_never_saved_or_shown(self, tmp_path):
        t = mixed_trace().freeze()
        SparseCoreModel().cost(t)
        assert t._segments
        t.save(tmp_path / "t.npz")
        with np.load(tmp_path / "t.npz") as data:
            assert sorted(data.files) == sorted((*_ARRAY_FIELDS, "name",
                                                 "scalars"))
        assert "_segments" not in repr(t)
        assert not FrozenTrace.load(tmp_path / "t.npz")._segments


def _archive(t: FrozenTrace) -> bytes:
    buf = io.BytesIO()
    t.save(buf)
    return buf.getvalue()


def _members(archive: bytes) -> dict:
    """The archive's member contents (its zip headers carry the clock)."""
    with zipfile.ZipFile(io.BytesIO(archive)) as z:
        return {name: z.read(name) for name in z.namelist()}


class TestCpuMemo:
    CONFIGS = [CpuConfig(), CpuConfig(cycles_per_step=1.0, scalar_cpi=2.0),
               CpuConfig(mispredict_penalty=30, mispredict_rate=0.2),
               CpuConfig(flop_cycles_per_pair=4.0)]

    @pytest.mark.parametrize("build", [mixed_trace, Trace, burst_only_trace],
                             ids=["mixed", "empty", "burst-only"])
    def test_memo_cannot_be_seen(self, build):
        t = build().freeze()
        twin = FrozenTrace(**{f.name: getattr(t, f.name)
                              for f in dataclasses.fields(FrozenTrace)
                              if f.init})
        archive = _archive(t)

        def fresh() -> FrozenTrace:
            with np.load(io.BytesIO(archive)) as data:
                return FrozenTrace.from_npz(data)

        for config in self.CONFIGS:
            for _ in range(2):
                got = CpuModel(config).cost(t)
                want = CpuModel(config).cost(fresh())
                assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert t._cpu_sums and not fresh()._cpu_sums
        assert _members(_archive(t)) == _members(archive)
        assert t == twin
        assert "_cpu_sums" not in repr(t)
