import itertools
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from cohsys import exactmath
from cohsys.exactmath import (
    BinaryForm,
    FieldMatrix,
    PrimeField,
    SMALL_RANK_ENTRIES,
    check_profile,
    form_determinant,
    generic_rank,
    multiplication_matrix,
    pack_bits,
    packed_rank,
    point_values,
    stacked_combination,
    stacked_rank,
    unpack_bits,
    vanishing_divisor_degree,
)
from oracles import (
    add,
    bareiss_determinant,
    bareiss_rank,
    compose_linear,
    evaluate,
    mul,
    row_swap_rank,
    scale,
    sympy_det,
    termwise_combination,
)

F101 = PrimeField(101)
F7 = PrimeField(7)


def form(*coeffs, field=F101):
    return BinaryForm(field, tuple(coeffs))


X = form(1, 0)
Y = form(0, 1)
ZERO = BinaryForm(F101, ())
# the points whose values ``generic_rank`` ranks, in its order
POINTS = [(1, 0), (0, 1), (1, 1)]


def random_form(rng, field, degree, zero_prob=0.25):
    if degree < 0 or rng.random() < zero_prob:
        return BinaryForm(field, ())
    return BinaryForm(field, tuple(rng.randrange(field.q) for _ in range(degree + 1)))


def profiled_matrix(rng, field, nrows, ncols):
    """Random form matrix with deg entry(i, j) = r_i + c_j, zero entries included."""
    r = [rng.randrange(3) for _ in range(nrows)]
    c = [rng.randrange(-1, 3) for _ in range(ncols)]
    entries = [[random_form(rng, field, r[i] + c[j]) for j in range(ncols)] for i in range(nrows)]
    return r, c, entries


def replace_last_row_by_combination(rng, field, r, rows):
    """Make the last row a form combination of the others, with row degree r[-1]."""
    r[-1] = max(r[:-1]) + rng.randrange(2)
    new = [BinaryForm(field, ())] * len(rows[0])
    for i in range(len(rows) - 1):
        g = random_form(rng, field, r[-1] - r[i], zero_prob=0.2)
        new = [add(acc, mul(g, f)) for acc, f in zip(new, rows[i])]
    rows[-1] = new


def sympy_rank(entries, q):
    """Largest size of a minor with nonzero sympy determinant."""
    m, n = len(entries), len(entries[0])
    for size in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), size):
            for csel in itertools.combinations(range(n), size):
                if sympy_det([[entries[i][j] for j in csel] for i in rsel], q):
                    return size
    return 0


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(100)


class TestBinaryForm:
    def test_zero_normalization(self):
        assert form(0, 0, 0).is_zero
        assert form(0, 0, 0).degree == -1

    def test_nonzero_keeps_slot(self):
        # leading-zero coefficients are legitimate: the form y has degree 1
        assert form(0, 1).degree == 1

    def test_evaluate(self):
        f = form(1, 2, 3)  # x^2 + 2xy + 3y^2
        assert evaluate(f, 1, 0) == 1
        assert evaluate(f, 0, 1) == 3
        assert evaluate(f, 1, 1) == 6

    def test_compose_linear_matches_evaluation(self):
        rng = random.Random(5)
        for _ in range(20):
            f = form(*[rng.randrange(101) for _ in range(4)])
            m = [rng.randrange(101) for _ in range(4)]
            g = compose_linear(f, *m)
            for b, c in [(1, 0), (0, 1), (1, 1), (2, 5), (17, 3)]:
                xb = (m[0] * b + m[1] * c) % 101
                yb = (m[2] * b + m[3] * c) % 101
                if f.is_zero:
                    assert g.is_zero
                else:
                    assert evaluate(g, b, c) == evaluate(f, xb, yb)

    @pytest.mark.parametrize("q", [7, 2**31 - 1])
    def test_numpy_coefficients_give_int_results(self, q):
        field = PrimeField(q)
        rng = random.Random(q)
        for _ in range(10):
            coeffs = [[[rng.randrange(q) for _ in range(3)] for _ in range(3)] for _ in range(3)]
            plain = [[BinaryForm(field, tuple(c)) for c in row] for row in coeffs]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                wide = [
                    [BinaryForm(field, tuple(np.array(c, dtype=np.int64))) for c in row]
                    for row in coeffs
                ]
                det = form_determinant(wide, field, [0] * 3, [2] * 3)
                rank = generic_rank(wide, [0] * 3, [2] * 3)
            assert all(type(c) is int for row in wide for f in row for c in f.coeffs)
            assert all(type(c) is int for c in det.coeffs)
            assert det.coeffs == form_determinant(plain, field, [0] * 3, [2] * 3).coeffs
            assert rank == generic_rank(plain, [0] * 3, [2] * 3)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            BinaryForm(F7, (1.0, 2))


class TestRational:
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    @settings(max_examples=200)
    def test_parse_print_round_trip(self, p, q):
        r = Fraction(p, q)
        assert Fraction(str(r)) == r

    def test_round_trip_bulk(self):
        rng = random.Random(0)
        for _ in range(10**4):
            r = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12))
            assert Fraction(str(r)) == r
            assert r.denominator > 0

    def test_exact_reduction(self):
        assert Fraction(2, 4) + Fraction(1, 4) == Fraction(3, 4)
        assert (Fraction(7, 2) - Fraction(1, 2)).denominator == 1


class TestKernelDimension:
    def test_identity(self):
        assert FieldMatrix(F101, np.eye(2, dtype=np.int64)).rank() == 2

    def test_zero_map(self):
        assert FieldMatrix(F101, np.zeros((1, 3), dtype=np.int64)).rank() == 0

    def test_dependent_rows(self):
        m = FieldMatrix.from_rows(F101, [[1, 2], [2, 4]])
        assert m.rank() == 1

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_rank_nullity(self, rows, cols, seed):
        rng = random.Random(seed)
        data = [[rng.randrange(7) for _ in range(cols)] for _ in range(rows)]
        kernel = DomainMatrix([[GF(7)(v) for v in row] for row in data], (rows, cols), GF(7))
        assert FieldMatrix.from_rows(F7, data).rank() + kernel.nullspace().shape[0] == cols

    def test_rank_transpose_invariant(self):
        rng = random.Random(3)
        for _ in range(25):
            m = FieldMatrix.from_rows(
                F101, [[rng.randrange(101) for _ in range(5)] for _ in range(3)]
            )
            assert m.rank() == FieldMatrix(F101, m.data.T).rank()

    @given(
        st.sampled_from([3, 101, 2**31 - 1]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_row_swap_elimination(self, q, large, wide, seed):
        # shapes on both sides of the Python-int cutoff, wide and tall, of a
        # forced low rank, with entries drawn near q as well as uniformly
        rng = np.random.default_rng(seed)
        short = int(rng.integers(1, 21))
        cap = SMALL_RANK_ENTRIES // short  # the longest side of a small matrix
        longer = int(rng.integers(cap + 1, cap + 9) if large else rng.integers(short, cap + 1))
        rows, cols = (short, longer) if wide else (longer, short)
        bound = int(rng.integers(0, short + 1))
        left = q - 1 - rng.integers(0, 3, size=(rows, bound))
        right = rng.integers(0, q, size=(bound, cols))
        data = termwise_combination(left, right, q)
        assert (data.size > SMALL_RANK_ENTRIES) == large
        got = FieldMatrix(PrimeField(q), data).rank()
        assert got == row_swap_rank(q, data) <= bound

    @pytest.mark.parametrize("q", [3, 101, 2**31 - 1])
    @pytest.mark.parametrize("shape", [(22, 20), (20, 22)])
    def test_a_large_rank_leaves_the_data_as_it_was(self, q, shape):
        # past the cutoff the matrix goes to stacked_rank as a view, a stack of one
        assert shape[0] * shape[1] > SMALL_RANK_ENTRIES
        rng = np.random.default_rng(q)
        matrix = FieldMatrix(PrimeField(q), rng.integers(0, q, size=shape))
        kept = matrix.data.copy()
        assert matrix.rank() == row_swap_rank(q, kept)
        assert (matrix.data == kept).all()

    @pytest.mark.parametrize("entries", [SMALL_RANK_ENTRIES, SMALL_RANK_ENTRIES + 1])
    def test_cutoff_selects_the_elimination(self, entries):
        # at the cutoff the Python loop runs, one entry past it a stack of one
        calls = []

        def counted(field, stack):
            calls.append(stack.shape)
            return stacked_rank(field, stack)

        data = np.eye(1, entries, dtype=np.int64)
        with mock.patch.object(exactmath, "stacked_rank", counted):
            assert FieldMatrix(F101, data).rank() == 1
        assert calls == ([] if entries == SMALL_RANK_ENTRIES else [(1, 1, entries)])


def per_matrix_ranks(field, stack):
    return [row_swap_rank(field.q, m) for m in stack]


def staggered_stack(rng, q, count, rows, cols):
    """A stack whose matrices have random ranks and pivots, with those ranks.

    Each matrix has r echelon rows with pivots in its own random columns,
    padded by combinations of them (or zeros) and shuffled, so pivots sit in
    different rows and columns across the stack, and a column can hold a
    pivot in some matrices only.
    """
    stack = np.zeros((count, rows, cols), dtype=np.int64)
    ranks = []
    for m in range(count):
        r = int(rng.integers(0, min(rows, cols) + 1))
        pivots = np.sort(rng.choice(cols, size=r, replace=False))
        echelon = np.zeros((r, cols), dtype=np.int64)
        for i, p in enumerate(pivots):
            echelon[i, p] = rng.integers(1, q)
            echelon[i, p + 1 :] = rng.integers(0, q, size=cols - p - 1)
        padded = list(echelon)
        for _ in range(rows - r):
            row = np.zeros(cols, dtype=np.int64)
            for e in echelon:  # each product reduced: (q - 1)**2 < 2**62
                row = (row + int(rng.integers(0, q)) * e % q) % q
            padded.append(row)
        stack[m] = np.array(padded)[rng.permutation(rows)]
        ranks.append(r)
    return stack, ranks


class TestStackedRank:
    @given(
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_staggered_pivots(self, q, count, rows, cols, seed):
        field = PrimeField(q)
        rng = np.random.default_rng(seed)
        stack, ranks = staggered_stack(rng, q, count, rows, cols)
        kept = stack.copy()
        assert per_matrix_ranks(field, stack) == ranks
        assert stacked_rank(field, stack).tolist() == ranks
        # permuting each matrix's rows, and transposing, keep every rank
        permuted = np.stack([m[rng.permutation(rows)] for m in stack])
        assert stacked_rank(field, permuted).tolist() == ranks
        assert stacked_rank(field, stack.transpose(0, 2, 1)).tolist() == ranks
        # the elimination works on its own copy, tall or wide, never the input
        assert (stack == kept).all()

    @given(
        st.sampled_from([2, 3, 101, 65521, 2**31 - 1]),
        st.integers(1, 4),
        st.integers(1, 40),
        st.integers(35, 48),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_lazy_reduction_on_wide_stacks(self, q, count, rows, cols, seed):
        # up to 40 pivot steps: the entries outgrow q for a few steps before
        # the rest is reduced, at step 30 or so for q = 2, every few steps
        # for q = 101 and 65521, and every step for q = 2**31 - 1
        field = PrimeField(q)
        rng = np.random.default_rng(seed)
        stack, ranks = staggered_stack(rng, q, count, rows, cols)
        assert stacked_rank(field, stack).tolist() == per_matrix_ranks(field, stack) == ranks
        assert stacked_rank(field, stack.transpose(0, 2, 1)).tolist() == ranks

    def test_pivots_in_different_rows_and_columns(self):
        # column 0 holds a pivot in the first two matrices only, in rows 2
        # and 0; column 1 in the last two, in rows 1 and 0
        f3 = PrimeField(3)
        stack = np.array(
            [
                [[0, 0, 1], [0, 0, 2], [2, 1, 0]],
                [[1, 1, 1], [2, 2, 2], [0, 0, 1]],
                [[0, 0, 0], [0, 2, 1], [0, 1, 2]],
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            ]
        )
        assert stacked_rank(f3, stack).tolist() == per_matrix_ranks(f3, stack) == [2, 2, 1, 1]

    @given(
        st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1]),
        st.integers(0, 5),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_field_matrix_rank(self, q, count, rows, cols, seed):
        field = PrimeField(q)
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, q, size=(count, rows, cols), dtype=np.int64)
        stack[rng.random(stack.shape) < rng.random()] = 0  # sparse to all-zero
        if rows >= 2:
            # rank-deficient matrices: the last row combines the first two
            dependent = rng.random(count) < 0.5
            combo = (stack[:, 0] * 3 % q + stack[:, 1] * (q - 1) % q) % q
            stack[dependent, -1] = combo[dependent]
        assert stacked_rank(field, stack).tolist() == per_matrix_ranks(field, stack)

    @pytest.mark.parametrize(
        "shape", [(3, 0, 4), (3, 4, 0), (0, 4, 4), (2, 3, 3), (4, 9, 2), (4, 2, 9)]
    )
    def test_shapes(self, shape):
        # empty rows, empty columns, an empty stack, square, tall and wide
        rng = np.random.default_rng(sum(shape))
        stack = rng.integers(0, 7, size=shape, dtype=np.int64)
        assert stacked_rank(F7, stack).tolist() == per_matrix_ranks(F7, stack)

    def test_all_zero_and_full_rank_side_by_side(self):
        stack = np.stack([np.zeros((3, 3), np.int64), np.eye(3, dtype=np.int64)])
        assert stacked_rank(F7, stack).tolist() == [0, 3]

    def test_q2_rank_deficient(self):
        f2 = PrimeField(2)
        stack = np.array([[[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]])
        assert stacked_rank(f2, stack).tolist() == [2, 2]

    def test_largest_modulus_does_not_overflow(self):
        # residues q - 1 make every cross product (q - 1)**2, just below 2**62
        q = 2**31 - 1
        field = PrimeField(q)
        top = np.full((4, 4), q - 1, dtype=np.int64)
        top[np.arange(4), np.arange(4)] = q - 2
        stack = np.stack([top, np.full((4, 4), q - 1, dtype=np.int64)])
        assert stacked_rank(field, stack).tolist() == per_matrix_ranks(field, stack) == [4, 1]

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError):
            stacked_rank(F7, np.eye(3, dtype=np.int64))

    @given(
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.sampled_from(["negative", "past q", "near 2**62"]),
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_entries_that_are_not_residues(self, q, kind, count, rows, cols, seed):
        # residues are copied, anything else is reduced first: some entries
        # move by multiples of q, below 0, to q or past it, or up to about 2**62
        field = PrimeField(q)
        rng = np.random.default_rng(seed)
        stack, ranks = staggered_stack(rng, q, count, rows, cols)
        low, high = {
            "negative": (-(2**20), -1),
            "past q": (1, 2**20),
            "near 2**62": (2**62 // q - 8, 2**62 // q),
        }[kind]
        shifts = rng.integers(low, high, size=stack.shape, endpoint=True)
        shifts[rng.random(stack.shape) < 0.5] = 0
        shifts.flat[rng.integers(stack.size)] = high  # at least one entry moves
        shifted = stack + q * shifts
        kept = shifted.copy()
        assert per_matrix_ranks(field, shifted) == ranks
        assert stacked_rank(field, shifted).tolist() == ranks
        assert stacked_rank(field, shifted.transpose(0, 2, 1)).tolist() == ranks
        assert (shifted == kept).all()  # the input is left as it was


F2 = PrimeField(2)


class TestPackedRank:
    """The F_2 elimination on bit rows against the row-swap elimination of each matrix."""

    @given(
        st.integers(0, 5),
        st.integers(0, 9),
        st.integers(1, 130),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_field_matrix_rank(self, count, rows, cols, density, seed):
        # widths up to 130 cross the word boundaries at 64 and 128
        rng = np.random.default_rng(seed)
        stack = (rng.random((count, rows, cols)) < density).astype(np.int64)
        want = per_matrix_ranks(F2, stack)
        assert stacked_rank(F2, stack).tolist() == want
        assert stacked_rank(F2, stack.transpose(0, 2, 1)).tolist() == want

    @pytest.mark.parametrize("cols", [1, 2, 63, 64, 65, 127, 128, 129, 130])
    def test_word_boundaries(self, cols):
        # one-row stacks with a single 1 in each column, zero stacks, and
        # matrices whose only pivots sit on either side of a boundary
        ones = np.eye(cols, dtype=np.int64)[:, None, :]
        assert stacked_rank(F2, ones).tolist() == [1] * cols
        assert stacked_rank(F2, np.zeros((3, 4, cols), dtype=np.int64)).tolist() == [0] * 3
        rng = np.random.default_rng(cols)
        stack, ranks = staggered_stack(rng, 2, 6, 5, cols)
        assert stacked_rank(F2, stack).tolist() == ranks
        assert stacked_rank(F2, stack.transpose(0, 2, 1)).tolist() == ranks

    @given(
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(1, 130),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_staggered_pivots(self, count, rows, cols, seed):
        rng = np.random.default_rng(seed)
        stack, ranks = staggered_stack(rng, 2, count, rows, cols)
        assert stacked_rank(F2, stack).tolist() == ranks
        assert packed_rank(pack_bits(stack)).tolist() == ranks
        permuted = np.stack([m[rng.permutation(rows)] for m in stack])
        assert stacked_rank(F2, permuted).tolist() == ranks

    def test_repeated_rows_clear_together(self):
        # the pivot row and its copies all XOR to zero: rank 1, not 2
        row = np.zeros(70, dtype=np.int64)
        row[[0, 64, 69]] = 1
        stack = np.stack([np.stack([row, row, row]), np.stack([row, np.roll(row, 1), row])])
        assert stacked_rank(F2, stack).tolist() == per_matrix_ranks(F2, stack) == [1, 2]

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pack_bits_layout(self, count, rows, cols, seed):
        # column c is bit c % 64 of word c // 64; the padding bits are zero
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(count, rows, cols))
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape == (count, rows, -(-cols // 64))
        c = np.arange(64 * words.shape[-1])
        unpacked = (words[..., c // 64] >> (c % 64).astype(np.uint64)) & np.uint64(1)
        assert (unpacked[..., :cols] == bits).all()
        assert not unpacked[..., cols:].any()
        assert (unpack_bits(words, cols) == bits).all()

    def test_stacked_rank_packs_over_f2_only(self):
        calls = []

        def counted(words):
            calls.append(words.shape)
            return packed_rank(words)

        stack = np.ones((2, 3, 3), dtype=np.int64)
        with mock.patch.object(exactmath, "packed_rank", counted):
            assert stacked_rank(F2, stack).tolist() == [1, 1]
            assert calls == [(2, 3, 1)]
            assert stacked_rank(F7, stack).tolist() == [1, 1]
            assert calls == [(2, 3, 1)]


class TestStackedCombination:
    @given(
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.integers(0, 6),
        st.lists(st.integers(0, 4), max_size=2),
        st.lists(st.integers(0, 4), max_size=2),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_termwise_sum(self, q, k, lead, tail, near_q, seed):
        # bases of any sign are reduced on entry; residues near q make every
        # term nearly (q - 1)**2, so at q = 2**31 - 1 a chunk of three terms
        # would overflow int64
        rng = np.random.default_rng(seed)
        if near_q:
            bases = q - 1 - rng.integers(0, 2, size=(*lead, k))
            mats = q - 1 - rng.integers(0, 2, size=(k, *tail))
        else:
            bases = rng.integers(-3 * q, 3 * q, size=(*lead, k))
            mats = rng.integers(0, q, size=(k, *tail))
        got = stacked_combination(bases, mats, q)
        assert got.shape == (*lead, *tail)
        assert (got == termwise_combination(bases, mats, q)).all()

    @pytest.mark.parametrize("q", [3, 101, 2**31 - 1])
    def test_top_residues(self, q):
        # (q - 1)**2 = 1 mod q, so k terms of top residues sum to k
        k = 7
        bases = np.full((2, k), q - 1, dtype=np.int64)
        mats = np.full((k, 3, 4), q - 1, dtype=np.int64)
        assert (stacked_combination(bases, mats, q) == k % q).all()


class TestMultiplicationMatrix:
    def test_by_x_from_degree_zero(self):
        assert multiplication_matrix(X, 0).tolist() == [[1], [0]]

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            multiplication_matrix(ZERO, 2)

    def test_x_plus_y_from_degree_one(self):
        m = multiplication_matrix(form(1, 1), 1)
        assert m.tolist() == [[1, 0], [1, 1], [0, 1]]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))
    @settings(max_examples=60)
    def test_composition(self, seed, df, dg, j):
        rng = random.Random(seed)
        f = form(*[rng.randrange(1, 101) for _ in range(df + 1)])
        g = form(*[rng.randrange(1, 101) for _ in range(dg + 1)])
        lhs = multiplication_matrix(mul(f, g), j)
        rhs = multiplication_matrix(f, j + g.degree) @ multiplication_matrix(g, j)
        assert lhs.tolist() == (rhs % 101).tolist()


class TestVanishingDivisorDegree:
    def test_no_common_zero(self):
        assert vanishing_divisor_degree([X, Y]) == 0

    def test_common_factor_x(self):
        assert vanishing_divisor_degree([mul(X, X), mul(X, Y)]) == 1

    def test_single_form(self):
        assert vanishing_divisor_degree([mul(mul(X, X), Y)]) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            vanishing_divisor_degree([ZERO, ZERO])

    def test_zero_members_ignored(self):
        assert vanishing_divisor_degree([ZERO, X]) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_generator_matches_list(self, seed):
        # a generator is read lazily and may stop early; the answer is the same
        rng = random.Random(seed)
        forms = [random_form(rng, F101, rng.randrange(3), zero_prob=0.3) for _ in range(4)]
        forms += [mul(random_form(rng, F101, 2), X) for _ in range(rng.randrange(3))]
        if all(f.is_zero for f in forms):
            forms.append(Y)
        assert vanishing_divisor_degree(f for f in forms) == vanishing_divisor_degree(forms)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_scalar_rescaling_invariance(self, seed):
        rng = random.Random(seed)
        forms = [form(*[rng.randrange(101) for _ in range(rng.randrange(2, 5))]) for _ in range(3)]
        if all(f.is_zero for f in forms):
            forms.append(X)
        scaled = [scale(f, rng.randrange(1, 101)) for f in forms]
        assert vanishing_divisor_degree(forms) == vanishing_divisor_degree(scaled)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_coordinate_change_invariance(self, seed):
        rng = random.Random(seed)
        forms = [form(*[rng.randrange(101) for _ in range(4)]) for _ in range(3)]
        if all(f.is_zero for f in forms):
            forms.append(X)
        while True:
            a, b, c, d = (rng.randrange(101) for _ in range(4))
            if (a * d - b * c) % 101:
                break
        moved = [compose_linear(f, a, b, c, d) for f in forms]
        assert vanishing_divisor_degree(forms) == vanishing_divisor_degree(moved)


class TestCheckProfile:
    def test_accepts_stated_profile(self):
        check_profile([[X, mul(X, Y)], [ZERO, Y]], [0, -1], [1, 2])

    def test_accepts_zero_entries_anywhere(self):
        # slot (1, 0) has degree -1: only the zero form fits there
        check_profile([[ZERO, ZERO], [ZERO, ZERO]], [0, -2], [1, 0])
        check_profile([[X, ZERO], [ZERO, ZERO]], [0, -2], [1, 0])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="shape"):
            check_profile([[X, Y]], [0, 0], [1, 1])

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError, match="shape"):
            check_profile([[X, Y], [X]], [0, 0], [1, 1])

    def test_rejects_nonzero_entry_in_negative_slot(self):
        with pytest.raises(ValueError, match="entry \\(1,0\\)"):
            check_profile([[X, ZERO], [form(3), ZERO]], [0, -2], [1, 0])

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError, match="entry \\(0,1\\) has degree 1, expected 2"):
            check_profile([[X, Y]], [0], [1, 2])


class TestGenericRank:
    def test_unit_matrix(self):
        assert generic_rank([[X, ZERO], [ZERO, X]], [0, 0], [1, 1]) == 2

    def test_degenerate_product_matrix(self):
        # rows proportional over the function field: rank 1
        x2 = mul(X, X)
        xy = mul(X, Y)
        y2 = mul(Y, Y)
        assert generic_rank([[x2, xy], [xy, y2]], [0, 0], [2, 2]) == 1
        # constants whose determinant 3 is nonzero over ZZ but zero over F_3
        two, one = BinaryForm(PrimeField(3), (2,)), BinaryForm(PrimeField(3), (1,))
        assert generic_rank([[two, one], [one, two]], [0, 0], [0, 0]) == 1
        assert exactmath._bareiss([[two, one], [one, two]], [0, 0], [0, 0], 3)[0] == 1

    def test_empty(self):
        assert generic_rank([], [], []) == 0
        assert generic_rank([[], []], [0, 1], []) == 0

    def test_no_degree_profile_rejected(self):
        # deg(0,0) + deg(1,1) != deg(0,1) + deg(1,0): no stated profile fits
        with pytest.raises(ValueError):
            generic_rank([[X, mul(X, X)], [X, X]], [0, 0], [1, 2])
        # a six-cycle of nonzero entries with no all-nonzero rectangle
        with pytest.raises(ValueError):
            generic_rank([[X, Y, ZERO], [ZERO, X, Y], [mul(X, Y), ZERO, X]], [0] * 3, [1] * 3)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([7, 101]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_minors(self, seed, q, nrows, ncols, dependent):
        rng = random.Random(seed)
        field = PrimeField(q)
        r, c, entries = profiled_matrix(rng, field, nrows, ncols)
        if dependent and nrows >= 2:
            replace_last_row_by_combination(rng, field, r, entries)
        assert generic_rank(entries, r, c) == sympy_rank(entries, q)

    @given(
        st.sampled_from(["pairing", "generation"]),
        st.lists(st.integers(-1, 5), min_size=1, max_size=4),
        st.integers(1, 4),
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.floats(0, 1),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bareiss_on_kernel_profiles(self, kind, degrees, w, q, y_share, dep, seed):
        # the profiles of the callers: a w x n pairing against sections of a
        # bundle (saturate, SectionPairing._generic_ranks) and an n x w
        # evaluation O^w -> E (check_global_generation); a y_share of the
        # entries are multiples of y, whose leading coefficients vanish, and
        # dep makes the last row a combination of the others
        rng = random.Random(seed)
        field = PrimeField(q)
        zeros = [0] * w
        r, c = (zeros, degrees) if kind == "pairing" else (degrees, zeros)

        def entry(d):
            if d < 0 or rng.random() < 0.2:
                return BinaryForm(field, ())
            if d >= 1 and rng.random() < y_share:
                return mul(form(0, 1, field=field), random_form(rng, field, d - 1, zero_prob=0))
            return random_form(rng, field, d, zero_prob=0)

        entries = [[entry(ri + ci) for ci in c] for ri in r]
        if dep and len(r) >= 2:
            replace_last_row_by_combination(rng, field, r, entries)
        want = bareiss_rank(entries, r, c)
        assert generic_rank(entries, r, c) == want
        # the elimination itself, also where a point has full rank
        assert exactmath._bareiss(entries, r, c, q)[0] == want

    def test_full_rank_leads_skip_the_elimination(self):
        # [[x, y], [y, x]] leads with the identity, and [[x, y], [x, 0]] with a
        # rank-1 matrix, but it has full rank at (1 : 1); [[y, x], [y, x]] has
        # rank 1 everywhere, and [[x, 0], [0, y(x - y)]], of generic rank 2,
        # has rank 1 at (1 : 0), (0 : 1) and (1 : 1) alike
        calls = []
        real = exactmath._bareiss

        def counted(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(exactmath, "_bareiss", counted):
            assert generic_rank([[X, Y], [Y, X]], [0, 0], [1, 1]) == 2
            assert generic_rank([[X, Y], [X, ZERO]], [0, 0], [1, 1]) == 2
            assert not calls
            assert generic_rank([[Y, X], [Y, X]], [0, 0], [1, 1]) == 1
            assert generic_rank([[X, ZERO], [ZERO, form(0, 1, 100)]], [0, 0], [1, 2]) == 2
            assert len(calls) == 2

    def test_points_are_ranked_until_one_has_full_rank(self, monkeypatch):
        # the values at (1 : 0) settle [[x, y], [y, x]]: one rank, as before
        # the other points were read; [[x, y], [x, 0]] needs all three
        ranked = []
        real = FieldMatrix.rank

        def counted(self):
            ranked.append(self.data.tolist())
            return real(self)

        monkeypatch.setattr(FieldMatrix, "rank", counted)
        generic_rank([[X, Y], [Y, X]], [0, 0], [1, 1])
        assert ranked == [[[1, 0], [0, 1]]]
        ranked.clear()
        generic_rank([[X, Y], [X, ZERO]], [0, 0], [1, 1])
        assert ranked == [[[1, 0], [1, 0]], [[0, 1], [0, 0]], [[1, 1], [1, 0]]]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 101]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(["y", "xy(x - y)"]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bareiss_when_singular_at_the_points(
        self, seed, q, nrows, ncols, factor, every_row
    ):
        # a row divisible by y is zero at (1 : 0) and one divisible by
        # xy(x - y) at all three points that are ranked before the elimination;
        # every row divisible makes the values there zero, not full rank
        rng = random.Random(seed)
        field = PrimeField(q)
        g = form(0, 1, field=field) if factor == "y" else form(0, 1, q - 1, 0, field=field)
        r, c, entries = profiled_matrix(rng, field, nrows, ncols)
        for i in range(nrows if every_row else 1):
            r[i] += g.degree
            entries[i] = [mul(g, f) for f in entries[i]]
        want = bareiss_rank(entries, r, c)
        assert generic_rank(entries, r, c) == want
        assert exactmath._bareiss(entries, r, c, q)[0] == want

    @pytest.mark.parametrize("nrows", [5, 6])
    @pytest.mark.parametrize("diagonal", ["full", "zero"])
    def test_largest_coefficients_at_the_digit_bound(self, nrows, diagonal):
        # q = 2**31 - 1 and entries of degree 4 whose coefficients are all
        # q - 1, the largest lift.  With equal entries everywhere the rank is
        # 1; with a zero diagonal it is full
        q = 2**31 - 1
        field = PrimeField(q)
        full = BinaryForm(field, (q - 1,) * 5)
        zero = BinaryForm(field, ())
        entries = [
            [zero if i == j and diagonal == "zero" else full for j in range(6)]
            for i in range(nrows)
        ]
        r, c = [0] * nrows, [4] * 6
        want = sympy_rank(entries, q)
        assert want == (1 if diagonal == "full" else nrows)
        assert generic_rank(entries, r, c) == want
        assert exactmath._bareiss(entries, r, c, q)[0] == want

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 7, 101]))
    @settings(max_examples=50, deadline=None)
    def test_point_values_are_the_values(self, seed, q):
        rng = random.Random(seed)
        field = PrimeField(q)
        _, _, entries = profiled_matrix(rng, field, 3, 2)
        want = [[[evaluate(f, b, c) for f in row] for row in entries] for b, c in POINTS]
        assert list(point_values(entries)) == want


class TestFormDeterminant:
    def test_empty_matrix_is_one(self):
        assert form_determinant([], F101, [], []).coeffs == (1,)

    def test_needs_square(self):
        with pytest.raises(ValueError):
            form_determinant([[X, Y]], F101, [0], [1, 1])

    def test_no_degree_profile_rejected(self):
        # deg(0,0) + deg(1,1) != deg(0,1) + deg(1,0): no stated profile fits
        with pytest.raises(ValueError):
            form_determinant([[X, mul(X, X)], [X, X]], F101, [0, 0], [1, 2])

    def test_two_by_two(self):
        # det [[x, y], [y, x]] = x^2 - y^2
        assert form_determinant([[X, Y], [Y, X]], F101, [0, 0], [1, 1]).coeffs == (1, 0, 100)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 7, 101]),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, seed, q, n, dependent):
        rng = random.Random(seed)
        field = PrimeField(q)
        r, c, entries = profiled_matrix(rng, field, n, n)
        if dependent and n >= 2:
            replace_last_row_by_combination(rng, field, r, entries)
        det = form_determinant(entries, field, r, c)
        # f(t, 1): the coefficients after the leading zeros, which count the power of y
        dehomogenized = list(itertools.dropwhile(lambda c: c == 0, det.coeffs))
        assert dehomogenized == sympy_det(entries, q)
        if not det.is_zero:
            assert det.degree == sum(r) + sum(c)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(0, 6),
        st.integers(-3, 0),
        st.floats(0, 1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_bareiss_elimination(self, seed, q, n, lowest, y_share, dependent):
        # row degrees from lowest up, so a negative one makes a row's entries
        # zero in its low slots; a y_share of the entries are multiples of y,
        # and dependent makes the last row a combination of the others
        rng = random.Random(seed)
        field = PrimeField(q)
        r = [rng.randrange(lowest, lowest + 3) for _ in range(n)]
        c = [rng.randrange(0, 4) for _ in range(n)]

        def entry(d):
            if d >= 1 and rng.random() < y_share:
                return mul(form(0, 1, field=field), random_form(rng, field, d - 1))
            return random_form(rng, field, d)

        entries = [[entry(ri + ci) for ci in c] for ri in r]
        if dependent and n >= 2:
            replace_last_row_by_combination(rng, field, r, entries)
        want = bareiss_determinant(entries, field, r, c)
        assert form_determinant(entries, field, r, c) == want

    @pytest.mark.parametrize("diagonal", ["full", "zero"])
    def test_largest_coefficients_at_the_digit_bound(self, diagonal):
        # q = 2**31 - 1 and n x n entries of degree 4 whose coefficients are
        # all q - 1, the largest lift.  At n = 1 the Leibniz bound is that
        # one coefficient, which needs every bit of B: the top bit of a
        # balanced digit is its sign.  At n = 6, with equal entries
        # everywhere the determinant is zero; with a zero diagonal it is
        # -5 * (q - 1)**6 * (1 + t + ... + t**4)**6 over ZZ, coefficients near
        # 2**195, which must come back exactly before the reduction mod q
        q = 2**31 - 1
        field = PrimeField(q)
        full = BinaryForm(field, (q - 1,) * 5)
        zero = BinaryForm(field, ())
        for n in (1, 6):
            entries = [
                [zero if i == j and diagonal == "zero" else full for j in range(n)]
                for i in range(n)
            ]
            det = form_determinant(entries, field, [0] * n, [4] * n)
            dehomogenized = list(itertools.dropwhile(lambda c: c == 0, det.coeffs))
            assert dehomogenized == sympy_det(entries, q)
            assert det.is_zero == ((diagonal == "full") == (n > 1))

    def test_digits_past_the_bound_raise(self):
        # an integer determinant longer than D + 1 digits means a wrong bound
        real = exactmath._bareiss

        def long_pivot(*args):
            rank, _, bits = real(*args)
            return rank, 1 << 1000, bits

        with mock.patch.object(exactmath, "_bareiss", long_pivot):
            with pytest.raises(RuntimeError):
                form_determinant([[X, Y], [Y, X]], F101, [0, 0], [1, 1])
