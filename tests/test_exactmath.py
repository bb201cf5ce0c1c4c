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
from cohsys.bundles import SplittingType, kernel_splitting
from cohsys.exactmath import (
    FieldMatrix,
    PrimeField,
    SMALL_RANK_ENTRIES,
    check_profile,
    form_determinant,
    generic_rank,
    left_kernel,
    matmul_mod,
    multiplication_matrix,
    pack_bits,
    packed_rank,
    point_values,
    stacked_combination,
    stacked_rank,
    unpack_bits,
    vanishing_divisor_degree,
)
from cohsys.stability import SystemInstance
from oracles import (
    add,
    bareiss_determinant,
    bareiss_rank,
    compose_linear,
    degree,
    evaluate,
    mul,
    pack,
    row_swap_rank,
    rows_rank,
    scale,
    sympy_det,
    termwise_combination,
    tuple_check_profile,
)
import oracles

F101 = PrimeField(101)
F7 = PrimeField(7)


def form(*coeffs, q=101):
    return oracles.form(coeffs, q)


X = form(1, 0)
Y = form(0, 1)
ZERO = ()
# the points whose values ``generic_rank`` ranks, in its order
POINTS = [(1, 0), (0, 1), (1, 1)]


def random_form(rng, q, degree, zero_prob=0.25):
    if degree < 0 or rng.random() < zero_prob:
        return ()
    return form(*(rng.randrange(q) for _ in range(degree + 1)), q=q)


def profiled_matrix(rng, q, nrows, ncols):
    """Random form matrix with deg entry(i, j) = r_i + c_j, zero entries included."""
    r = [rng.randrange(3) for _ in range(nrows)]
    c = [rng.randrange(-1, 3) for _ in range(ncols)]
    entries = [[random_form(rng, q, r[i] + c[j]) for j in range(ncols)] for i in range(nrows)]
    return r, c, entries


def replace_last_row_by_combination(rng, q, r, rows):
    """Make the last row a form combination of the others, with row degree r[-1]."""
    r[-1] = max(r[:-1]) + rng.randrange(2)
    new = [()] * len(rows[0])
    for i in range(len(rows) - 1):
        g = random_form(rng, q, r[-1] - r[i], zero_prob=0.2)
        new = [add(acc, mul(g, f, q), q) for acc, f in zip(new, rows[i])]
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


def rank_of(entries, r, c, q=101):
    """``generic_rank`` of the packed form matrix."""
    return generic_rank(pack(entries, r, c), PrimeField(q), r, c)


def bareiss_of(entries, r, c, q=101):
    """``exactmath._bareiss`` of the packed form matrix."""
    return exactmath._bareiss(pack(entries, r, c), r, c, q)


def det_of(entries, r, c, q=101):
    """``form_determinant`` of the packed form matrix."""
    return form_determinant(pack(entries, r, c), PrimeField(q), r, c)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(100)


class TestBinaryForm:
    """One binary form: its coefficient tuple in the references, its slots in a form matrix."""

    def test_zero_normalization(self):
        # an all-zero coefficient vector is the zero form, of degree -1, and
        # in a form matrix an all-zero entry reads 0 at every point
        assert form(0, 0, 0) == ()
        assert degree(form(0, 0, 0)) == -1
        assert point_values(pack([[form(0, 0, 0)]], [0], [2]), [0], [2], 101).tolist() == [[[0]]] * 3

    def test_nonzero_keeps_slot(self):
        # leading-zero coefficients are legitimate: the form y has degree 1,
        # and in a degree-1 slot it reads 0 at (1 : 0) and 1 at (0 : 1)
        assert degree(form(0, 1)) == 1
        assert point_values(pack([[Y]], [0], [1]), [0], [1], 101).tolist() == [[[0]], [[1]], [[1]]]

    def test_evaluate(self):
        f = form(1, 2, 3)  # x^2 + 2xy + 3y^2
        assert evaluate(f, 1, 0, 101) == 1
        assert evaluate(f, 0, 1, 101) == 3
        assert evaluate(f, 1, 1, 101) == 6

    def test_compose_linear_matches_evaluation(self):
        rng = random.Random(5)
        for _ in range(20):
            f = form(*[rng.randrange(101) for _ in range(4)])
            m = [rng.randrange(101) for _ in range(4)]
            g = compose_linear(f, *m, 101)
            for b, c in [(1, 0), (0, 1), (1, 1), (2, 5), (17, 3)]:
                xb = (m[0] * b + m[1] * c) % 101
                yb = (m[2] * b + m[3] * c) % 101
                if not f:
                    assert not g
                else:
                    assert evaluate(g, b, c, 101) == evaluate(f, xb, yb, 101)

    @pytest.mark.parametrize("q", [7, 2**31 - 1])
    def test_numpy_coefficients_give_int_results(self, q):
        # the eliminations read an int64 form matrix as Python ints: no
        # product wraps at q = 2**31 - 1, and a determinant's coefficients
        # are ints equal to the polynomial elimination's
        field = PrimeField(q)
        rng = random.Random(q)
        for _ in range(10):
            coeffs = [[form(*(rng.randrange(q) for _ in range(3)), q=q) for _ in range(3)] for _ in range(3)]
            matrix = pack(coeffs, [0] * 3, [2] * 3)
            assert matrix.dtype == np.int64
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                det = form_determinant(matrix, field, [0] * 3, [2] * 3)
                rank = generic_rank(matrix, field, [0] * 3, [2] * 3)
            assert all(type(c) is int for c in det)
            assert oracles.form(det, q) == bareiss_determinant(coeffs, q, [0] * 3, [2] * 3)
            assert rank == bareiss_rank(coeffs, [0] * 3, [2] * 3, q)

    def test_float_coefficient_rejected(self):
        # coefficients enter the program at the instance file, as JSON integers
        doc = {"q": 7, "splitting": [1], "sections": [[[1.0, 2]]]}
        with pytest.raises(ValueError, match="coefficient must be a JSON integer"):
            SystemInstance.from_json_dict(doc)


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
        assert rows_rank(F101, [[1, 2], [2, 4]]) == 1

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
        assert rows_rank(F7, data) + kernel.nullspace().shape[0] == cols

    def test_rank_transpose_invariant(self):
        rng = random.Random(3)
        for _ in range(25):
            m = FieldMatrix(F101, np.array([[rng.randrange(101) for _ in range(5)] for _ in range(3)]))
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


class TestLeftKernel:
    @given(
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(0, 6),
        st.integers(1, 6),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_are_a_basis_of_the_left_kernel(self, q, k, n, bound, seed):
        # k x n matrices of rank at most bound, the zero and the empty one included
        rng = np.random.default_rng(seed)
        left = rng.integers(0, q, size=(k, bound))
        right = q - 1 - rng.integers(0, 3, size=(bound, n))
        data = termwise_combination(left, right, q)
        rows = data.tolist()
        kernel = left_kernel(data.tolist(), q)
        assert len(kernel) == k - row_swap_rank(q, data)
        for c in kernel:
            assert len(c) == k and all(0 <= v < q for v in c)
            assert all(sum(v * row[j] for v, row in zip(c, rows)) % q == 0 for j in range(n))
        assert rows_rank(PrimeField(q), kernel) == len(kernel)

    def test_generated_values_have_a_one_row_kernel(self):
        # three values of O(1)^2 at one point, the third the sum of the first two
        assert left_kernel([[1, 0], [0, 1], [1, 1]], 101) == [[100, 100, 1]]


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

    @given(
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.integers(0, 5),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matmul_mod_broadcasts_stacks(self, q, terms, count, seed):
        # a stack of (3, 1, terms) left factors against a stack of
        # (1, terms, 4) right ones, with residues near q
        rng = np.random.default_rng(seed)
        a = q - 1 - rng.integers(0, 2, size=(count, 3, 1, terms))
        b = q - 1 - rng.integers(0, 2, size=(count, 1, terms, 4))
        got = matmul_mod(a, b, q)
        assert got.shape == (count, 3, 1, 4)
        want = [
            [termwise_combination(a[s, p], b[s, 0], q) for p in range(3)] for s in range(count)
        ]
        assert (got == np.array(want, dtype=np.int64).reshape(got.shape)).all()

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
        lhs = multiplication_matrix(mul(f, g, 101), j)
        rhs = multiplication_matrix(f, j + degree(g)) @ multiplication_matrix(g, j)
        assert lhs.tolist() == (rhs % 101).tolist()


class TestVanishingDivisorDegree:
    def test_no_common_zero(self):
        assert vanishing_divisor_degree([X, Y], 101) == 0

    def test_common_factor_x(self):
        assert vanishing_divisor_degree([mul(X, X, 101), mul(X, Y, 101)], 101) == 1

    def test_single_form(self):
        assert vanishing_divisor_degree([mul(mul(X, X, 101), Y, 101)], 101) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            vanishing_divisor_degree([ZERO, ZERO], 101)
        # an all-zero coefficient tuple is a zero form too
        with pytest.raises(ValueError):
            vanishing_divisor_degree([(0, 0), ZERO], 101)

    def test_zero_members_ignored(self):
        assert vanishing_divisor_degree([ZERO, X], 101) == 1
        assert vanishing_divisor_degree([(0, 0, 0), X], 101) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_generator_matches_list(self, seed):
        # a generator is read lazily and may stop early; the answer is the same
        rng = random.Random(seed)
        forms = [random_form(rng, 101, rng.randrange(3), zero_prob=0.3) for _ in range(4)]
        forms += [mul(random_form(rng, 101, 2), X, 101) for _ in range(rng.randrange(3))]
        if not any(forms):
            forms.append(Y)
        assert vanishing_divisor_degree((f for f in forms), 101) == vanishing_divisor_degree(forms, 101)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_scalar_rescaling_invariance(self, seed):
        rng = random.Random(seed)
        forms = [form(*[rng.randrange(101) for _ in range(rng.randrange(2, 5))]) for _ in range(3)]
        if not any(forms):
            forms.append(X)
        scaled = [scale(f, rng.randrange(1, 101), 101) for f in forms]
        assert vanishing_divisor_degree(forms, 101) == vanishing_divisor_degree(scaled, 101)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_coordinate_change_invariance(self, seed):
        rng = random.Random(seed)
        forms = [form(*[rng.randrange(101) for _ in range(4)]) for _ in range(3)]
        if not any(forms):
            forms.append(X)
        while True:
            a, b, c, d = (rng.randrange(101) for _ in range(4))
            if (a * d - b * c) % 101:
                break
        moved = [compose_linear(f, a, b, c, d, 101) for f in forms]
        assert vanishing_divisor_degree(forms, 101) == vanishing_divisor_degree(moved, 101)


def profile_error(run):
    """The ValueError that run() raises, as text, or None."""
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckProfile:
    def test_accepts_stated_profile(self):
        check_profile(pack([[X, mul(X, Y, 101)], [ZERO, Y]], [0, -1], [1, 2]), [0, -1], [1, 2])

    def test_accepts_zero_entries_anywhere(self):
        # slot (1, 0) has degree -1: only the zero form fits there
        check_profile(pack([[ZERO, ZERO], [ZERO, ZERO]], [0, -2], [1, 0]), [0, -2], [1, 0])
        check_profile(pack([[X, ZERO], [ZERO, ZERO]], [0, -2], [1, 0]), [0, -2], [1, 0])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="shape"):
            check_profile(pack([[X, Y]], [0], [1, 1]), [0, 0], [1, 1])

    def test_rejects_wrong_row_length(self):
        # an array is never ragged: a column short is a shape that does not match
        with pytest.raises(ValueError, match="shape"):
            check_profile(pack([[X], [X]], [0, 0], [1]), [0, 0], [1, 1])

    def test_rejects_too_few_slots(self):
        # every degree of the profile needs its slot
        with pytest.raises(ValueError, match="shape"):
            check_profile(np.zeros((1, 2, 2), dtype=np.int64), [0], [1, 2])
        with pytest.raises(ValueError, match="shape"):
            check_profile(np.zeros((1, 2, 2)), [0], [1, 2])

    def test_rejects_nonzero_entry_in_negative_slot(self):
        with pytest.raises(ValueError, match="entry \\(1,0\\)"):
            check_profile(pack([[X, ZERO], [form(3), ZERO]], [0, -2], [1, 0]), [0, -2], [1, 0])

    def test_rejects_degree_mismatch(self):
        # a form of degree 2 in a slot of degree 1: a coefficient past its slot
        matrix = pack([[X, form(0, 1, 4)]], [0], [1, 1])
        with pytest.raises(ValueError, match="entry \\(0,1\\) has a coefficient in slot 2, past its degree 1"):
            check_profile(matrix, [0], [1, 1])

    @given(
        st.sampled_from([2, 3, 101, 2**31 - 1]),
        st.lists(st.integers(-2, 3), min_size=0, max_size=3),
        st.lists(st.integers(-2, 3), min_size=0, max_size=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_entrywise_check(self, q, r, c, data):
        # zero entries, forms of their slot's degree, and forms longer than
        # their slot with a nonzero last coefficient (past the slot, in the
        # array); negative slot degrees admit the zero form only
        def entry(slot):
            kind = data.draw(st.sampled_from(["zero", "fits", "long"]))
            if kind == "zero" or (kind == "fits" and slot < 0):
                return ()
            size = slot + 1 if kind == "fits" else max(0, slot + 1) + data.draw(st.integers(1, 2))
            coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
            coeffs[-1] = data.draw(st.integers(1, q - 1))
            return tuple(coeffs)

        entries = [[entry(ri + ci) for ci in c] for ri in r]
        want = profile_error(lambda: tuple_check_profile(entries, r, c))
        got = profile_error(lambda: check_profile(pack(entries, r, c), r, c))
        assert (got is None) == (want is None)
        if want is not None:
            # the first entry past its slot is the first of the wrong degree
            assert got.split(" has ")[0] == want.split(" has ")[0]


class TestGenericRank:
    def test_unit_matrix(self):
        assert rank_of([[X, ZERO], [ZERO, X]], [0, 0], [1, 1]) == 2

    def test_degenerate_product_matrix(self):
        # rows proportional over the function field: rank 1
        x2 = mul(X, X, 101)
        xy = mul(X, Y, 101)
        y2 = mul(Y, Y, 101)
        assert rank_of([[x2, xy], [xy, y2]], [0, 0], [2, 2]) == 1
        # constants whose determinant 3 is nonzero over ZZ but zero over F_3
        two, one = (2,), (1,)
        assert rank_of([[two, one], [one, two]], [0, 0], [0, 0], 3) == 1
        assert bareiss_of([[two, one], [one, two]], [0, 0], [0, 0], 3)[0] == 1

    def test_empty(self):
        assert rank_of([], [], []) == 0
        assert rank_of([[], []], [0, 1], []) == 0

    def test_no_degree_profile_rejected(self):
        # a coefficient past its slot: y^2 where deg(1, 1) = 1, and y^2 in a
        # six-cycle of degree-1 entries with no all-nonzero rectangle
        with pytest.raises(ValueError):
            rank_of([[X, mul(Y, Y, 101)], [X, mul(Y, Y, 101)]], [0, 0], [1, 1])
        with pytest.raises(ValueError):
            rank_of([[X, Y, ZERO], [ZERO, X, Y], [mul(Y, Y, 101), ZERO, X]], [0] * 3, [1] * 3)

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
        r, c, entries = profiled_matrix(rng, q, nrows, ncols)
        if dependent and nrows >= 2:
            replace_last_row_by_combination(rng, q, r, entries)
        assert rank_of(entries, r, c, q) == sympy_rank(entries, q)

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
        zeros = [0] * w
        r, c = (zeros, degrees) if kind == "pairing" else (degrees, zeros)

        def entry(d):
            if d < 0 or rng.random() < 0.2:
                return ()
            if d >= 1 and rng.random() < y_share:
                return mul(form(0, 1, q=q), random_form(rng, q, d - 1, zero_prob=0), q)
            return random_form(rng, q, d, zero_prob=0)

        entries = [[entry(ri + ci) for ci in c] for ri in r]
        if dep and len(r) >= 2:
            replace_last_row_by_combination(rng, q, r, entries)
        want = bareiss_rank(entries, r, c, q)
        assert rank_of(entries, r, c, q) == want
        # the elimination itself, also where a point has full rank
        assert bareiss_of(entries, r, c, q)[0] == want

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
            assert rank_of([[X, Y], [Y, X]], [0, 0], [1, 1]) == 2
            assert rank_of([[X, Y], [X, ZERO]], [0, 0], [1, 1]) == 2
            assert not calls
            assert rank_of([[Y, X], [Y, X]], [0, 0], [1, 1]) == 1
            assert rank_of([[X, ZERO], [ZERO, form(0, 1, 100)]], [0, 0], [1, 2]) == 2
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
        rank_of([[X, Y], [Y, X]], [0, 0], [1, 1])
        assert ranked == [[[1, 0], [0, 1]]]
        ranked.clear()
        rank_of([[X, Y], [X, ZERO]], [0, 0], [1, 1])
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
        g = form(0, 1, q=q) if factor == "y" else form(0, 1, q - 1, 0, q=q)
        r, c, entries = profiled_matrix(rng, q, nrows, ncols)
        for i in range(nrows if every_row else 1):
            r[i] += degree(g)
            entries[i] = [mul(g, f, q) for f in entries[i]]
        want = bareiss_rank(entries, r, c, q)
        assert rank_of(entries, r, c, q) == want
        assert bareiss_of(entries, r, c, q)[0] == want

    @pytest.mark.parametrize("nrows", [5, 6])
    @pytest.mark.parametrize("diagonal", ["full", "zero"])
    def test_largest_coefficients_at_the_digit_bound(self, nrows, diagonal):
        # q = 2**31 - 1 and entries of degree 4 whose coefficients are all
        # q - 1, the largest lift.  With equal entries everywhere the rank is
        # 1; with a zero diagonal it is full
        q = 2**31 - 1
        full = (q - 1,) * 5
        entries = [
            [() if i == j and diagonal == "zero" else full for j in range(6)]
            for i in range(nrows)
        ]
        r, c = [0] * nrows, [4] * 6
        want = sympy_rank(entries, q)
        assert want == (1 if diagonal == "full" else nrows)
        assert rank_of(entries, r, c, q) == want
        assert bareiss_of(entries, r, c, q)[0] == want

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 7, 101, 2**31 - 1]))
    @settings(max_examples=50, deadline=None)
    def test_point_values_are_the_values(self, seed, q):
        # zero entries and entries of negative degree read 0 at every point
        rng = random.Random(seed)
        r, c, entries = profiled_matrix(rng, q, 3, 2)
        want = [[[evaluate(f, b, cc, q) for f in row] for row in entries] for b, cc in POINTS]
        assert point_values(pack(entries, r, c), r, c, q).tolist() == want


class TestFormDeterminant:
    def test_empty_matrix_is_one(self):
        assert det_of([], [], []) == (1,)

    def test_needs_square(self):
        with pytest.raises(ValueError):
            det_of([[X, Y]], [0], [1, 1])

    def test_no_degree_profile_rejected(self):
        # the caller checks the profile once, before any minor: the pairing
        # O(-1)^3 -> O^2 with y^2 in a degree-1 slot is refused by
        # kernel_splitting's check, and no determinant is taken
        entries = [[X, Y, ZERO], [ZERO, X, mul(Y, Y, 101)]]
        matrix = pack(entries, [0, 0], [1, 1, 1])
        source = SplittingType((-1, -1, -1))
        with mock.patch.object(exactmath, "form_determinant") as det:
            with pytest.raises(ValueError, match="past its degree"):
                kernel_splitting(F101, source, SplittingType((0, 0)), matrix)
        assert not det.called

    def test_two_by_two(self):
        # det [[x, y], [y, x]] = x^2 - y^2
        assert det_of([[X, Y], [Y, X]], [0, 0], [1, 1]) == (1, 0, 100)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 7, 101]),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, seed, q, n, dependent):
        rng = random.Random(seed)
        r, c, entries = profiled_matrix(rng, q, n, n)
        if dependent and n >= 2:
            replace_last_row_by_combination(rng, q, r, entries)
        det = det_of(entries, r, c, q)
        # f(t, 1): the coefficients after the leading zeros, which count the power of y
        dehomogenized = list(itertools.dropwhile(lambda c: c == 0, det))
        assert dehomogenized == sympy_det(entries, q)
        if det:
            assert degree(det) == sum(r) + sum(c)

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
        r = [rng.randrange(lowest, lowest + 3) for _ in range(n)]
        c = [rng.randrange(0, 4) for _ in range(n)]

        def entry(d):
            if d >= 1 and rng.random() < y_share:
                return mul(form(0, 1, q=q), random_form(rng, q, d - 1), q)
            return random_form(rng, q, d)

        entries = [[entry(ri + ci) for ci in c] for ri in r]
        if dependent and n >= 2:
            replace_last_row_by_combination(rng, q, r, entries)
        want = bareiss_determinant(entries, q, r, c)
        assert det_of(entries, r, c, q) == want

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
        full = (q - 1,) * 5
        for n in (1, 6):
            entries = [
                [() if i == j and diagonal == "zero" else full for j in range(n)]
                for i in range(n)
            ]
            det = det_of(entries, [0] * n, [4] * n, q)
            dehomogenized = list(itertools.dropwhile(lambda c: c == 0, det))
            assert dehomogenized == sympy_det(entries, q)
            assert (not det) == ((diagonal == "full") == (n > 1))

    def test_digits_past_the_bound_raise(self):
        # an integer determinant longer than D + 1 digits means a wrong bound
        real = exactmath._bareiss

        def long_pivot(*args):
            rank, _, bits = real(*args)
            return rank, 1 << 1000, bits

        with mock.patch.object(exactmath, "_bareiss", long_pivot):
            with pytest.raises(RuntimeError):
                det_of([[X, Y], [Y, X]], [0, 0], [1, 1])
