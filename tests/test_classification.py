from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsys.classification import (
    AlphaInterval,
    Status,
    classify,
    cross_check,
    necessary_region,
    slope_bounds,
)
from cohsys.numerology import decompose
from oracles import valid_degrees_k1


class TestAlphaInterval:
    def test_degenerate_open_normalizes_to_empty(self):
        assert AlphaInterval.open_interval(Fraction(2), Fraction(2)).empty
        assert AlphaInterval.open_interval(Fraction(3), Fraction(2)).empty

    def test_contains_endpoints(self):
        iv = AlphaInterval.open_interval(Fraction(1), Fraction(3))
        assert not iv.contains(Fraction(1))
        assert iv.contains(Fraction(2))
        closed = AlphaInterval.closed_interval(Fraction(1), Fraction(3))
        assert closed.contains(Fraction(1))

    def test_subset(self):
        small = AlphaInterval.open_interval(Fraction(1), Fraction(2))
        big = AlphaInterval.open_interval(Fraction(0), None)
        assert small.issubset(big)
        assert not big.issubset(small)
        assert AlphaInterval.EMPTY.issubset(small)

    def test_midpoint(self):
        assert AlphaInterval.open_interval(Fraction(1), Fraction(3)).midpoint() == 2
        assert AlphaInterval.open_interval(Fraction(1), None).midpoint() == 2

    def test_json_round_trip_strings(self):
        iv = AlphaInterval.open_interval(Fraction(1), Fraction(7, 2))
        d = iv.to_json_dict()
        assert d["lower"] == "1" and d["upper"] == "7/2"


class TestNecessaryRegion:
    def test_example_5_13_2(self):
        iv = necessary_region(5, 13, 2)
        assert (iv.lower, iv.upper) == (Fraction(1), Fraction(7, 2))
        assert iv.lower_open and iv.upper_open

    def test_example_l_zero(self):
        assert necessary_region(3, 7, 1).empty

    def test_nonpositive_degree(self):
        assert necessary_region(4, -1, 2).empty
        assert necessary_region(4, 0, 2).empty

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            necessary_region(1, 5, 1)
        with pytest.raises(ValueError):
            necessary_region(3, 5, 0)

    def test_region_empty_iff_l_nonpositive_when_beta_ok(self):
        for n in range(2, 7):
            for d in range(1, 30):
                for k in range(1, n):
                    num = decompose(n, d, k)
                    if num.beta < 0:
                        continue
                    assert necessary_region(n, d, k).empty == (num.l <= 0)


class TestSlopeBounds:
    @given(st.integers(3, 40), st.integers(-200, 2000), st.data())
    @settings(max_examples=300)
    def test_below_rank_width_is_n_l_over_k(self, n, d, data):
        k = data.draw(st.integers(1, n - 1))
        num = decompose(n, d, k)
        iv = slope_bounds(n, d, k)
        assert iv.empty == (num.l <= 0)
        if not iv.empty:
            assert iv.lower == Fraction(num.t, k)
            assert iv.upper - iv.lower == Fraction(n * num.l, k)
            assert iv.lower_open and iv.upper_open

    @given(st.integers(2, 40), st.integers(-200, 2000), st.data())
    @settings(max_examples=300)
    def test_at_or_above_rank_no_upper_bound(self, n, d, data):
        k = data.draw(st.integers(n, n + 10))
        iv = slope_bounds(n, d, k)
        assert iv.empty == (d <= 0)
        if not iv.empty:
            assert iv.lower == Fraction(decompose(n, d, k).t, k)
            assert iv.upper is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            slope_bounds(1, 5, 1)
        with pytest.raises(ValueError):
            slope_bounds(3, 5, 0)


class TestClassify:
    def test_k1_example(self):
        v = classify(2, 3, 1)
        assert v.status is Status.EXACT
        assert (v.stable_interval.lower, v.stable_interval.upper) == (1, 3)

    def test_k1_nonempty_iff_attainable_degree(self):
        for n in range(2, 6):
            attainable = set(valid_degrees_k1(n, 40))
            for d in range(0, 41):
                v = classify(n, d, 1)
                assert (v.status is Status.EXACT) == (d in attainable)

    def test_k2_exceptional_4_6(self):
        v = classify(4, 6, 2)
        assert v.status is Status.EMPTY
        (iv, note), = v.semistable_notes
        assert (iv.lower, iv.upper, iv.lower_open, iv.upper_open) == (1, 3, False, False)

    def test_k2_exceptional_3_2(self):
        v = classify(3, 2, 2)
        assert v.status is Status.EMPTY
        (iv, _), = v.semistable_notes
        assert iv.lower == iv.upper == 2

    def test_k2_balanced_family_note(self):
        v = classify(4, 4, 2)
        assert v.status is Status.EMPTY
        (iv, _), = v.semistable_notes
        assert (iv.lower, iv.upper) == (0, 2)
        v = classify(6, 12, 2)
        assert v.status is Status.EMPTY
        (iv, _), = v.semistable_notes
        assert (iv.lower, iv.upper) == (0, 3)

    def test_k2_generic(self):
        v = classify(5, 13, 2)
        assert v.status is Status.EXACT
        assert (v.stable_interval.lower, v.stable_interval.upper) == (1, Fraction(7, 2))

    def test_k_eq_n_eq_2(self):
        assert classify(2, 2, 2).status is Status.EMPTY
        v = classify(2, 5, 2)
        assert v.status is Status.EXACT
        assert v.stable_interval.lower == Fraction(1, 2)
        assert v.stable_interval.upper is None

    def test_k_eq_n_minus_1(self):
        assert classify(4, 3, 3).status is Status.EMPTY
        v = classify(4, 7, 3)
        assert v.status is Status.PARTIALLY_KNOWN
        assert v.stable_interval.empty
        assert v.necessary_region.upper == 7

    def test_k_eq_n(self):
        assert classify(3, 3, 3).status is Status.EMPTY
        v = classify(3, 5, 3)
        assert v.status is Status.PARTIALLY_KNOWN
        assert v.necessary_region.upper is None

    def test_k_eq_n_plus_1(self):
        v = classify(3, 3, 4)
        assert v.status is Status.PARTIALLY_KNOWN
        assert v.beta == 0
        assert (v.stable_interval.lower, v.stable_interval.upper) == (0, None)
        assert classify(3, 2, 4).status is Status.EMPTY
        v = classify(3, 4, 4)
        assert v.stable_interval.lower == 2  # t = 2, proven-sufficient bound

    def test_unresolved_k_range(self):
        v = classify(6, 30, 4)  # 3 <= k <= n-2
        assert v.status is Status.NECESSARY_ONLY
        v = classify(2, 30, 5)  # k >= n+2
        assert v.status is Status.NECESSARY_ONLY

    def test_unresolved_k_with_proven_empty_region(self):
        v = classify(6, 2, 4)
        assert v.status is Status.EMPTY

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify(1, 5, 1)

    def test_stable_subset_of_necessary_sweep(self):
        for n in range(2, 9):
            for d in range(-10, 41):
                for k in range(1, 11):
                    v = classify(n, d, k)
                    assert v.stable_interval.issubset(v.necessary_region) or (
                        # proven-sufficient regions may *equal* the necessary region
                        v.stable_interval.to_json_dict() == v.necessary_region.to_json_dict()
                    )
                    if v.status is Status.EMPTY:
                        assert v.stable_interval.empty

    def test_k_le_2_intervals_open(self):
        for n in range(2, 7):
            for d in range(1, 30):
                for k in (1, 2):
                    v = classify(n, d, k)
                    if v.status is Status.EXACT:
                        assert v.stable_interval.lower_open
                        assert v.stable_interval.upper is None or v.stable_interval.upper_open


class TestCrossCheck:
    def test_n3_upper_bounds_agree(self):
        for d in range(1, 30):
            rep = cross_check(3, d)
            assert rep.all_agree

    def test_threshold_identity_all_n(self):
        for n in range(2, 12):
            rep = cross_check(n, 7)
            entry = next(e for e in rep.entries if e.name == "k2-degree-thresholds")
            assert entry.agree

    def test_exceptional_flag(self):
        assert cross_check(4, 6).exceptional_pair
        assert not cross_check(4, 7).exceptional_pair
