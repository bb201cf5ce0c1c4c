from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsys.numerology import (
    beta_nonnegative_threshold,
    brill_noether,
    decompose,
)
from oracles import valid_degrees_k1


class TestDecompose:
    def test_examples(self):
        n = decompose(5, 13, 2)
        assert (n.a, n.t, n.l, n.m) == (3, 2, 1, 1)
        n = decompose(4, 6, 2)
        assert (n.a, n.t, n.l, n.m) == (2, 2, 1, 0)
        n = decompose(3, 7, 1)
        assert (n.a, n.t, n.l, n.m) == (3, 2, 0, 1)

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            decompose(1, 5, 1)

    def test_l_m_absent_for_large_k(self):
        n = decompose(3, 5, 3)
        assert n.l is None and n.m is None

    @given(st.integers(2, 10), st.integers(-60, 60), st.integers(0, 12))
    @settings(max_examples=300)
    def test_euclidean_identities(self, n, d, k):
        num = decompose(n, d, k)
        assert num.d == n * num.a - num.t and 0 <= num.t < n
        assert num.a == -(-d // n)
        assert num.t == (n - d % n) % n
        if k < n:
            assert k * num.a - num.t == num.l * (n - k) + num.m
            assert 0 <= num.m < n - k


class TestBrillNoether:
    def test_examples(self):
        assert brill_noether(3, 3, 4) == 0
        assert brill_noether(4, 6, 2) == 1
        assert brill_noether(2, 2, 1) == 0

    @given(st.integers(2, 8), st.integers(-40, 40), st.integers(1, 10))
    @settings(max_examples=300)
    def test_dimension_count_identity(self, n, d, k):
        assert k * (d + n - k) - n * n + 1 == brill_noether(n, d, k)

    @given(st.integers(2, 8), st.integers(-40, 40), st.integers(1, 10))
    @settings(max_examples=300)
    def test_threshold_equivalence(self, n, d, k):
        assert (brill_noether(n, d, k) >= 0) == (
            Fraction(d) >= beta_nonnegative_threshold(n, k)
        )


class TestValidDegreesK1:
    def test_example_n3(self):
        assert valid_degrees_k1(3, 20) == [6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]

    def test_example_n2(self):
        assert valid_degrees_k1(2, 5) == [2, 3, 4, 5]

    def test_below_minimum_is_empty(self):
        for n in range(2, 7):
            assert valid_degrees_k1(n, n * n - n - 1) == []
            assert valid_degrees_k1(n, n * n - n)[0] == n * n - n

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_matches_l_positive(self, n):
        d_max = 4 * n * n
        expected = [d for d in range(d_max + 1) if decompose(n, d, 1).l > 0]
        assert valid_degrees_k1(n, d_max) == expected
