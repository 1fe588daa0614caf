"""Unit tests for the merge-run analysis (cost-model substrate)."""

import numpy as np

from repro.streams import runstats
from repro.streams.runstats import analyze_pair, OpStats


def keys(*xs):
    return np.array(xs, dtype=np.int64)


class TestAnalyzePair:
    def test_empty_both(self):
        st = analyze_pair(keys(), keys())
        assert st == OpStats(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_disjoint_single_runs(self):
        # A entirely below B: two runs, no matches.  The terminal B-only
        # run is free for intersection (A is already exhausted).
        st = analyze_pair(keys(1, 2, 3), keys(10, 11))
        assert st.n_runs == 2
        assert st.n_matches == 0
        assert st.n_union == 5
        assert st.su_cycles_intersect == 1
        assert st.su_cycles_submerge == 2
        assert st.direction_changes == 1

    def test_identical_streams(self):
        st = analyze_pair(keys(1, 2, 3), keys(1, 2, 3))
        assert st.n_matches == 3
        assert st.n_runs == 1
        # Intersection emits one match per cycle.
        assert st.su_cycles_intersect == 3
        # Sub/merge consume the match run at window rate.
        assert st.su_cycles_submerge == 1

    def test_long_run_windowing(self):
        # 40 consecutive A-only keys: ceil(40/16) = 3 cycles; the
        # trailing B-only run [100] costs no intersect cycles.
        st = analyze_pair(keys(*range(40)), keys(100))
        assert st.su_cycles_intersect == 3
        assert st.su_cycles_submerge == 3 + 1

    def test_interleaved_alternating(self):
        # Perfectly interleaved: every element is its own run.
        a = keys(*range(0, 20, 2))
        b = keys(*range(1, 20, 2))
        st = analyze_pair(a, b)
        assert st.n_runs == 20
        assert st.direction_changes == 19
        # The final run ([19], B-only) is terminal and free.
        assert st.su_cycles_intersect == 19

    def test_out_len_kinds(self):
        st = analyze_pair(keys(1, 2, 3), keys(2, 9))
        assert st.out_len("intersect") == 1
        assert st.out_len("subtract") == 2
        assert st.out_len("merge") == 4

    def test_bad_kind_raises(self):
        import pytest

        st = analyze_pair(keys(1), keys(1))
        with pytest.raises(ValueError):
            st.out_len("xor")
        with pytest.raises(ValueError):
            st.su_cycles("xor")

    def test_bound_truncates_both(self):
        st = analyze_pair(keys(1, 5, 50), keys(5, 60), bound=10)
        assert (st.eff_a, st.eff_b) == (2, 1)
        assert st.n_matches == 1
        assert (st.len_a, st.len_b) == (3, 2)

    def test_bound_to_empty(self):
        st = analyze_pair(keys(5, 6), keys(7), bound=2)
        assert st.n_union == 0
        assert st.len_a == 2

    def test_custom_width(self):
        st = analyze_pair(keys(*range(32)), keys(100), width=4)
        assert st.su_cycles_submerge == 8 + 1

    def test_cpu_steps_equal_union(self):
        st = analyze_pair(keys(1, 3, 5), keys(3, 4))
        assert st.cpu_steps == st.n_union == 4

    def test_empty_operand_intersect_is_free(self):
        # With one operand empty the SU never starts: 0 intersect
        # cycles; sub/merge still stream the survivor through.
        st = analyze_pair(keys(), keys(*range(17)))
        assert st.su_cycles_intersect == 0
        assert st.su_cycles_submerge == 2  # ceil(17/16)
        st = analyze_pair(keys(*range(33)), keys())
        assert st.su_cycles_intersect == 0
        assert st.su_cycles_submerge == 3

    def test_terminal_match_run_still_charged(self):
        # Streams ending on a match: nothing is terminal-exempt.
        st = analyze_pair(keys(1, 2, 5), keys(5))
        assert st.su_cycles_intersect == 2  # [1,2] windowed + match [5]

    def test_terminal_exemption_matches_vectorized_path(self):
        # Short and long operands both match the stepped StreamUnit.
        a = keys(*range(0, 300, 3))
        b = keys(*range(0, 90, 2))
        small = analyze_pair(a[:20], b[:20])
        big = analyze_pair(a, b)
        for st, (aa, bb) in ((small, (a[:20], b[:20])), (big, (a, b))):
            from repro.arch.stream_unit import StreamUnit

            sim = StreamUnit().run(aa, bb, "intersect")
            assert sim.cycles == st.su_cycles_intersect


class TestTruncateBound:
    def test_unbounded_passthrough(self):
        a = keys(1, 2)
        assert runstats.truncate_bound(a, -1) is a

    def test_strict_inequality(self):
        assert runstats.truncate_bound(keys(1, 5, 9), 5).tolist() == [1]
