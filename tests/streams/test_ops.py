"""Unit tests for the functional stream operation kernels."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.streams import ops
from repro.streams.ops import ValueOp


def keys(*xs):
    return np.array(xs, dtype=np.int64)


class TestIntersect:
    def test_basic(self):
        assert ops.intersect(keys(1, 3, 7), keys(2, 3, 7)).tolist() == [3, 7]

    def test_disjoint(self):
        assert ops.intersect(keys(1, 2), keys(3, 4)).tolist() == []

    def test_identical(self):
        assert ops.intersect(keys(1, 2, 3), keys(1, 2, 3)).tolist() == [1, 2, 3]

    def test_empty_operands(self):
        assert ops.intersect(keys(), keys(1, 2)).tolist() == []
        assert ops.intersect(keys(1, 2), keys()).tolist() == []
        assert ops.intersect(keys(), keys()).tolist() == []

    def test_bounded(self):
        # Only elements strictly below the bound are produced.
        assert ops.intersect(keys(1, 5, 9), keys(1, 5, 9), bound=5).tolist() == [1]

    def test_bound_zero_empty(self):
        assert ops.intersect(keys(0, 1), keys(0, 1), bound=0).tolist() == []

    def test_unbounded_sentinel(self):
        full = ops.intersect(keys(1, 5), keys(1, 5), bound=ops.UNBOUNDED)
        assert full.tolist() == [1, 5]

    def test_count_matches_len(self):
        a, b = keys(1, 4, 6, 9), keys(2, 4, 9, 11)
        assert ops.intersect_count(a, b) == len(ops.intersect(a, b))

    def test_count_bounded(self):
        assert ops.intersect_count(keys(1, 5, 9), keys(1, 5, 9), bound=6) == 2


class TestSubtract:
    def test_basic(self):
        assert ops.subtract(keys(1, 3, 7), keys(3)).tolist() == [1, 7]

    def test_subtract_everything(self):
        assert ops.subtract(keys(1, 2), keys(1, 2, 3)).tolist() == []

    def test_subtract_nothing(self):
        assert ops.subtract(keys(1, 2), keys(5)).tolist() == [1, 2]

    def test_bounded(self):
        assert ops.subtract(keys(1, 3, 7), keys(3), bound=7).tolist() == [1]

    def test_count(self):
        assert ops.subtract_count(keys(1, 3, 7), keys(3)) == 2

    def test_empty(self):
        assert ops.subtract(keys(), keys(1)).tolist() == []


class TestMerge:
    def test_basic(self):
        assert ops.merge(keys(1, 3), keys(2, 3)).tolist() == [1, 2, 3]

    def test_empty(self):
        assert ops.merge(keys(), keys(1)).tolist() == [1]
        assert ops.merge(keys(), keys()).tolist() == []

    def test_count(self):
        assert ops.merge_count(keys(1, 3), keys(2, 3)) == 3


class TestVInter:
    def test_paper_example(self):
        out = ops.vinter(
            keys(1, 3, 7), np.array([45.0, 21.0, 13.0]),
            keys(2, 5, 7), np.array([14.0, 36.0, 2.0]),
            "MAC",
        )
        assert out == 26.0

    def test_no_matches_is_zero(self):
        out = ops.vinter(keys(1), np.array([5.0]), keys(2), np.array([7.0]))
        assert out == 0.0

    def test_max_accumulates_maxima(self):
        out = ops.vinter(
            keys(1, 2), np.array([1.0, 9.0]),
            keys(1, 2), np.array([4.0, 3.0]),
            "MAX",
        )
        assert out == 4.0 + 9.0

    def test_min_accumulates_minima(self):
        out = ops.vinter(
            keys(1, 2), np.array([1.0, 9.0]),
            keys(1, 2), np.array([4.0, 3.0]),
            "MIN",
        )
        assert out == 1.0 + 3.0

    def test_bounded(self):
        out = ops.vinter(
            keys(1, 7), np.array([2.0, 100.0]),
            keys(1, 7), np.array([3.0, 100.0]),
            "MAC", bound=7,
        )
        assert out == 6.0

    def test_unknown_op_raises(self):
        with pytest.raises(StreamError):
            ops.vinter(keys(1), np.array([1.0]), keys(1), np.array([1.0]), "NOPE")

    def test_custom_registered_op(self):
        ValueOp.register("SUMPAIR", lambda a, b: a + b)
        out = ops.vinter(
            keys(1), np.array([2.0]), keys(1), np.array([3.0]), "SUMPAIR"
        )
        assert out == 5.0
        assert "SUMPAIR" in ValueOp.names()


class TestVInterMacCross:
    """Every pair of the cross product equals ``vinter`` on the pair."""

    @staticmethod
    def _streams(rng, n, universe, offset):
        out = []
        for _ in range(n):
            k = np.flatnonzero(rng.random(universe) < rng.random())
            out.append((k.astype(np.int64) + offset,
                        rng.standard_normal(k.size)))
        return out

    @pytest.mark.parametrize("offset", [0, -40, 2 ** 61])
    def test_matches_vinter_per_pair(self, offset):
        rng = np.random.default_rng(11)
        a = self._streams(rng, 5, 300, offset)
        b = self._streams(rng, 6, 300, offset)
        b.insert(2, (keys(), np.empty(0)))
        if offset == 2 ** 61:
            # Keys spanning 2 ** 61 in seven streams would overflow the
            # shifted keys unless the b side is split.
            a[1] = (np.append(a[1][0], 2 ** 62), np.append(a[1][1], 1.5))
        counts, values = ops.vinter_mac_cross(
            *(np.concatenate(x) for x in zip(*a)),
            np.array([k.size for k, _ in a]),
            *(np.concatenate(x) for x in zip(*b)),
            np.array([k.size for k, _ in b]))
        assert counts.shape == values.shape == (5, 7)
        for i, (ak, av) in enumerate(a):
            for j, (bk, bv) in enumerate(b):
                want = ops.vinter(ak, av, bk, bv, "MAC")
                assert values[i, j].tobytes() == np.float64(want).tobytes()
                assert counts[i, j] == ops.intersect_count(ak, bk)
        assert counts.max() >= 8

    def test_repeat_streams(self):
        x = np.arange(6)
        idx = ops.repeat_streams(np.array([2, 0, 3, 1]), 2)
        assert x[idx].tolist() == [0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 5, 5]


class TestVMerge:
    def test_paper_example(self):
        out_k, out_v = ops.vmerge(
            2.0, keys(1, 3), np.array([4.0, 21.0]),
            3.0, keys(1, 5), np.array([1.0, 36.0]),
        )
        assert out_k.tolist() == [1, 3, 5]
        assert out_v.tolist() == [11.0, 42.0, 108.0]

    def test_one_side_empty(self):
        out_k, out_v = ops.vmerge(
            2.0, keys(), np.array([]), 3.0, keys(4), np.array([5.0])
        )
        assert out_k.tolist() == [4]
        assert out_v.tolist() == [15.0]

    def test_matches_dense_axpy(self):
        rng = np.random.default_rng(0)
        ak = np.flatnonzero(rng.random(50) < 0.3).astype(np.int64)
        bk = np.flatnonzero(rng.random(50) < 0.3).astype(np.int64)
        av, bv = rng.random(ak.size), rng.random(bk.size)
        out_k, out_v = ops.vmerge(1.5, ak, av, -0.5, bk, bv)
        dense = np.zeros(50)
        dense[ak] += 1.5 * av
        dense[bk] += -0.5 * bv
        assert out_k.tolist() == np.flatnonzero(dense != 0).tolist()
        np.testing.assert_allclose(out_v, dense[out_k])
