import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsys
from cohsys import delta, exactmath
from cohsys.delta import (
    DeltaInput,
    delta_bruteforce,
    delta_closure,
    delta_formula,
    pencil_min_rank,
    sample_delta_input,
)
from cohsys.exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    FieldMatrix,
    PrimeField,
    minor_divisor_degree,
    vanishing_divisor_degree,
)
from oracles import (
    add,
    bareiss_determinant,
    form,
    mul,
    pack,
    scale,
    sympy_minor_divisor_degree,
    unpack,
)

F = PrimeField(101)
X, Y = (1, 0), (0, 1)


def families(first, second, slot_degree):
    """The (2, t, slot_degree + 1) array of two families of forms, as ``pencil_min_rank`` takes them."""
    return pack([list(first), list(second)], [0, 0], [slot_degree] * len(first))


def delta_input(field, a, t, first, second):
    """The ``DeltaInput`` of two families of t forms of degree a - 1."""
    return DeltaInput(field, a, t, families(first, second, a - 1))


class TestFormulas:
    def test_delta_cases(self):
        assert delta_formula(3, 2) == 2
        assert delta_formula(2, 2) == 1
        assert delta_formula(1, 3) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            delta_formula(0, 1)
        with pytest.raises(ValueError):
            delta_formula(1, 0)


class TestDeltaInput:
    def test_rejects_wrong_degree(self):
        # a form of degree 2 among degree-1 forms needs a slot past a - 1
        with pytest.raises(ValueError, match="shape"):
            delta_input(F, 2, 1, [(1, 2, 3)], [()])

    def test_rejects_wrong_family_length(self):
        with pytest.raises(ValueError, match="shape"):
            # one form in each family where t = 2 asks for two
            DeltaInput(F, 2, 2, pack([[X], [X]], [0, 0], [1]))

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            DeltaInput(F, 2, 0, np.zeros((2, 0, 2), dtype=np.int64))


class TestOracles:
    def test_all_zero(self):
        inp = delta_input(F, 2, 2, [(), ()], [(), ()])
        assert delta_bruteforce(inp) == 0
        assert delta_closure(inp) == 0

    def test_equal_pair_cancels(self):
        f = (3, 5)
        inp = delta_input(F, 2, 1, [f], [f])
        assert delta_bruteforce(inp) == 0
        assert delta_closure(inp) == 0

    def test_random_generic_matches_formula(self):
        inp = sample_delta_input(3, 2, 101, 7)
        assert delta_bruteforce(inp) == delta_formula(3, 2) == delta_closure(inp)

    def test_rational_scan_upper_bounds_closure(self):
        for seed in range(30):
            for (a, t) in ((2, 2), (3, 2), (2, 3), (4, 4)):
                inp = sample_delta_input(a, t, 101, seed)
                assert delta_bruteforce(inp) >= delta_closure(inp)

    def test_closure_semicontinuity(self):
        # the closure oracle never exceeds the generic value, including a = t
        for seed in range(25):
            for a in range(1, 5):
                for t in range(1, 5):
                    inp = sample_delta_input(a, t, 101, seed)
                    assert delta_closure(inp) <= delta_formula(a, t)

    def test_rational_scan_can_miss_irrational_drop(self):
        # at a = t the minimizing pencil point is a root of a degree-t form and
        # often lives in a quadratic extension; the rational scan then reports
        # the full rank t while the closure oracle finds the drop
        hits = 0
        for seed in range(40):
            inp = sample_delta_input(2, 2, 101, seed)
            r, c = delta_bruteforce(inp), delta_closure(inp)
            assert c <= delta_formula(2, 2)
            if r > c:
                hits += 1
        assert hits > 0

    def test_pair_mixing_invariance(self):
        # an invertible constant 2x2 mix of the families g, g' reparametrizes
        # the pencil and cannot change the minimal rank
        for seed in range(10):
            inp = sample_delta_input(3, 3, 101, seed)
            g, gp = inp.forms
            mixed = DeltaInput(inp.field, inp.a, inp.t, np.stack([2 * g + 7 * gp, g + 4 * gp]))
            assert delta_closure(inp) == delta_closure(mixed)
            assert delta_bruteforce(inp) == delta_bruteforce(mixed)

    def test_scalar_rescaling_invariance(self):
        for seed in range(10):
            inp = sample_delta_input(2, 3, 101, seed)
            scaled = DeltaInput(inp.field, inp.a, inp.t, 9 * inp.forms)
            assert delta_bruteforce(inp) == delta_bruteforce(scaled)
            assert delta_closure(inp) == delta_closure(scaled)


class TestPencilMinRank:
    def test_row_bound(self):
        # two coefficient rows bound the rank by 2 regardless of the columns
        assert pencil_min_rank(families([X, Y, X, Y], [Y, X, Y, X], 1), F) <= 2

    def test_zero_first_family(self):
        # rank 0 at (1 : 0) ends the sweep before any minor, whatever the
        # generic rank of the second family
        field = PrimeField(7)
        rng = random.Random(3)
        second = [form([rng.randrange(7) for _ in range(4)], 7) for _ in range(3)]
        first = [()] * 3
        B = families(first, second, 3)[1].T
        assert FieldMatrix(field, B).rank() == 3
        assert all_minors_min_rank(first, second, 3, 7) == 0
        assert pencil_min_rank(families(first, second, 3), field) == 0

    def test_identity_pencil(self):
        # columns (x, y) vs (y, x): det = b^2 - c^2 factors rationally
        assert pencil_min_rank(families([X, Y], [Y, X], 1), F) == 1

    def test_irrational_drop_found_by_the_upward_sweep(self):
        # b*I + c*diag(M, M, M) with M = [[0, 3], [1, 0]]: each block has
        # determinant b^2 - 3c^2, which has no zero over F_7, so the rank is 6
        # at every rational point and drops to 3 only at an irrational one.
        # The 5 x 5 minors share that zero, and the upward sweep finds the
        # first size whose minors share one, 4
        field = PrimeField(7)
        unit = [[int(r == c) for r in range(6)] for c in range(6)]
        columns = [unit[c + 1] if c % 2 == 0 else [3 * x for x in unit[c - 1]] for c in range(6)]
        first, second = [form(col, 7) for col in unit], [form(col, 7) for col in columns]
        inp = delta_input(field, 6, 6, first, second)
        assert delta_closure(inp) == 3 < delta_formula(6, 6) - 1
        assert all_minors_min_rank(first, second, 5, 7) == 3
        assert delta_bruteforce(inp) == 6


def all_minors_min_rank(first, second, slot_degree, q):
    """Reference: every minor of every size, the sweep ``pencil_min_rank`` replaces.

    The pencil's entries are the degree-1 forms (A[r][c], B[r][c]) as
    tuples, and each minor is the determinant of the polynomial elimination.
    """
    ncols = len(first)
    nrows = slot_degree + 1
    coeff = [[f or (0,) * nrows for f in fam] for fam in (first, second)]
    entries = [[form((coeff[0][c][r], coeff[1][c][r]), q) for c in range(ncols)] for r in range(nrows)]
    for size in range(1, min(nrows, ncols) + 1):
        minors = []
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(ncols), size):
                minor = [[entries[r][c] for c in csel] for r in rsel]
                det = bareiss_determinant(minor, q, [0] * size, [1] * size)
                if det:
                    minors.append(det)
        if not minors:
            return size - 1
        if vanishing_divisor_degree(minors, q) >= 1:
            return size - 1
    return min(nrows, ncols)


def draw_pencil(rng, kind, a, t, field):
    """Two families of t forms of degree a - 1, drawn to reach rank drops."""
    q = field.q

    def draw(coeffs):
        return form(coeffs, q)

    def uniform(zero_prob=0.0):
        return draw(0 if rng.random() < zero_prob else rng.randrange(q) for _ in range(a))

    if kind == "generic":
        return [uniform() for _ in range(t)], [uniform() for _ in range(t)]
    if kind == "sparse":
        return [uniform(0.7) for _ in range(t)], [uniform(0.7) for _ in range(t)]
    if kind == "equal-pair":
        first = [uniform() for _ in range(t)]
        second = [scale(f, rng.randrange(q), q) if rng.random() < 0.7 else uniform() for f in first]
        return first, second

    def combo(basis):
        acc = ()
        for b in basis:
            acc = add(acc, scale(b, rng.randrange(q), q), q)
        return acc

    if kind == "low-rank":
        basis = [uniform() for _ in range(rng.randrange(1, 3))]
        return [combo(basis) for _ in range(t)], [combo(basis) for _ in range(t)]
    if kind == "deficient-first":
        # the first family spans fewer than min(a, t) dimensions, so the rank at
        # (1 : 0) lies below the generic rank of the uniform second family
        basis = [uniform() for _ in range(rng.randrange(min(a, t)))]
        return [combo(basis) for _ in range(t)], [uniform() for _ in range(t)]
    if kind == "deficient-second":
        # the mirror image: the rank at (0 : 1) sets the bound on the minimum
        basis = [uniform() for _ in range(rng.randrange(min(a, t)))]
        return [uniform() for _ in range(t)], [combo(basis) for _ in range(t)]
    # shared linear factor: every form is L * h with h of degree a - 2
    linear = draw((rng.randrange(q), rng.randrange(q)))
    if a < 2 or not linear:
        return [uniform() for _ in range(t)], [uniform() for _ in range(t)]

    def multiple():
        return mul(linear, draw(rng.randrange(q) for _ in range(a - 1)), q)

    return [multiple() for _ in range(t)], [multiple() for _ in range(t)]


DRAW_KINDS = [
    "generic",
    "sparse",
    "equal-pair",
    "low-rank",
    "shared-linear-factor",
    "deficient-first",
    "deficient-second",
]


class TestPencilMinRankEquivalence:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DRAW_KINDS),
        st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1]),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_all_minors(self, seed, kind, q, a, t):
        rng = random.Random(seed)
        field = PrimeField(q)
        first, second = draw_pencil(rng, kind, a, t, field)
        expected = all_minors_min_rank(first, second, a - 1, q)
        assert pencil_min_rank(families(first, second, a - 1), field) == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DRAW_KINDS),
        st.sampled_from([2, 3, 5, 7, 101]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_all_minors_at_six(self, seed, kind, q):
        # a = t = 6: the lone 6 x 6 minor is skipped, and drops below 5 reach
        # the upward sweep
        field = PrimeField(q)
        first, second = draw_pencil(random.Random(seed), kind, 6, 6, field)
        want = all_minors_min_rank(first, second, 5, q)
        assert pencil_min_rank(families(first, second, 5), field) == want


class TestPencilMinors:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DRAW_KINDS),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(1, 5),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_minor_divisor_degree_matches_every_minor(self, seed, kind, q, a, t, data):
        # the a x t pencil of degree-1 forms in (b, c), at a size drawn up to
        # min(a, t); low-rank and deficient draws make every minor of the
        # larger sizes vanish, which leaves no divisor to read
        field = PrimeField(q)
        first, second = draw_pencil(random.Random(seed), kind, a, t, field)
        pencil = families(first, second, a - 1).transpose(2, 1, 0)
        rows, cols = [0] * a, [1] * t
        size = data.draw(st.integers(1, min(a, t)))
        want = sympy_minor_divisor_degree(unpack(pencil, rows, cols), rows, cols, size, q)
        if want is None:
            with pytest.raises(ValueError, match="all forms are zero"):
                minor_divisor_degree(pencil, field, rows, cols, size)
        else:
            assert minor_divisor_degree(pencil, field, rows, cols, size) == want


class TestPencilMinRankOrder:
    @staticmethod
    def counted(monkeypatch):
        # every minor of the sweep is one form_determinant, called through
        # exactmath's own binding by minor_divisor_degree
        sizes = []
        real = exactmath.form_determinant

        def wrapper(entries, *args):
            sizes.append(len(entries))
            return real(entries, *args)

        monkeypatch.setattr(exactmath, "form_determinant", wrapper)
        return sizes

    def test_generic_square_pencil_takes_two_minors(self, monkeypatch):
        # full rank at the three points: the lone 6 x 6 minor vanishes
        # somewhere, so the bound is 5, and two 5 x 5 minors settle it
        sizes = self.counted(monkeypatch)
        for seed in range(5):
            inp = sample_delta_input(6, 6, 101, seed)
            sizes.clear()
            assert delta_closure(inp) == 5
            assert 6 not in sizes
            assert 1 <= len(sizes) <= 2

    def test_generic_pencil_at_ten_takes_two_minors(self, monkeypatch):
        # a = t = 10: two 9 x 9 minors, a size no other draw of the suite
        # reaches, settle the bound 9, the formula's value
        sizes = self.counted(monkeypatch)
        assert delta_closure(sample_delta_input(10, 10, 101, 0)) == delta_formula(10, 10) == 9
        assert sizes == [9, 9]

    def test_drop_at_the_second_family(self, monkeypatch):
        # b*A + c*B = [[b + c, 0], [0, b]]: B of rank 1 sets the bound at
        # (0 : 1), and the 1 x 1 minors b + c and b share no zero, so the
        # 2 x 2 minor is never computed
        field = PrimeField(7)
        sizes = self.counted(monkeypatch)
        assert pencil_min_rank(families([X, Y], [X, ()], 1), field) == 1
        assert sizes and set(sizes) == {1}

    def test_profile_is_checked_once_per_pencil(self, monkeypatch):
        # the pencil's profile is checked once, not once per minor: every
        # binding of check_profile counts its calls, on a = t = 5 draws whose
        # minors of the bound's size share a zero, so the sweep goes below it
        calls = []
        real = exactmath.check_profile

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (exactmath, delta, cohsys.bundles, cohsys.stability):
            monkeypatch.setattr(module, "check_profile", counted)
        sizes = self.counted(monkeypatch)
        swept = 0
        for seed in range(40):
            first, second = draw_pencil(random.Random(seed), "equal-pair", 5, 5, PrimeField(7))
            calls.clear()
            sizes.clear()
            pencil_min_rank(families(first, second, 4), PrimeField(7))
            assert len(calls) <= 1
            if len(set(sizes)) > 1:
                swept += 1
                assert len(sizes) > 1 == len(calls)
        assert swept


def per_point_min_rank(inp):
    """Reference: the rational scan ``delta_bruteforce`` replaces, one rank per point."""
    q = inp.field.q
    A, B = inp.forms.transpose(0, 2, 1)
    least = inp.t
    for b, c in [(1, c) for c in range(q)] + [(0, 1)]:
        least = min(least, FieldMatrix(inp.field, (b * A + c * B) % q).rank())
        if least == 0:
            break
    return least


def stack_lengths(run):
    """run()'s result and the number of points in each stack the scan ranked."""
    lengths = []
    real = delta.stacked_rank

    def recorded(field, stack):
        lengths.append(len(stack))
        return real(field, stack)

    with mock.patch.object(delta, "stacked_rank", recorded):
        return run(), lengths


class TestStackedScanEquivalence:
    # a budget of 128 a t entries stacks 128 points of a x t: q = 257 has 258
    # points, two full stacks and a short last one holding (0 : 1); the
    # equal-pair kind reaches rank 0 and stops early
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DRAW_KINDS),
        st.sampled_from([2, 3, 5, 7, 101, 257]),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_scan(self, seed, kind, q, a, t):
        field = PrimeField(q)
        first, second = draw_pencil(random.Random(seed), kind, a, t, field)
        inp = delta_input(field, a, t, first, second)
        with mock.patch.object(exactmath, "STACK_CELLS", 128 * a * t):
            assert delta_bruteforce(inp) == per_point_min_rank(inp)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DRAW_KINDS),
        st.sampled_from([2, 3, 101, 257]),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_does_not_change_the_scan(self, seed, kind, q, a, t):
        # one point per stack, a few, and the default budget: the same least
        # rank, and no stack above the budget or one point's a x t entries
        field = PrimeField(q)
        first, second = draw_pencil(random.Random(seed), kind, a, t, field)
        inp = delta_input(field, a, t, first, second)
        want = per_point_min_rank(inp)
        for cells in (1, 40, exactmath.STACK_CELLS):
            with mock.patch.object(exactmath, "STACK_CELLS", cells):
                least, lengths = stack_lengths(lambda: delta_bruteforce(inp))
            assert least == want
            assert all(n * a * t <= max(cells, a * t) for n in lengths)

    def test_drop_at_infinity_in_last_stack(self):
        # b*I + c*0 has full rank except at (0 : 1), the last point scanned;
        # a budget of 257 matrices of 2 x 2 puts it alone in a short last stack
        q = 257
        field = PrimeField(q)
        inp = delta_input(field, 2, 2, [X, Y], [(), ()])
        with mock.patch.object(exactmath, "STACK_CELLS", 257 * 4):
            least, lengths = stack_lengths(lambda: delta_bruteforce(inp))
        assert lengths == [257, 1]
        assert least == per_point_min_rank(inp) == 0
        assert delta_closure(inp) == 0


class TestScanCostGuard:
    @staticmethod
    def vanishing_at_one_one(q):
        # a = t = 1: b * 1 + c * (q - 1) vanishes at (1 : 1), in the first stack
        field = PrimeField(q)
        return delta_input(field, 1, 1, [(1,)], [(q - 1,)])

    def test_bound_counts_points(self):
        # the scan visits the q + 1 lines of F_q^2, the unit the guard bounds
        assert 1999993 + 1 <= COST_GUARD_MAX_SUBSPACES < 2000003 + 1
        assert delta_bruteforce(self.vanishing_at_one_one(1999993)) == 0
        with pytest.raises(ValueError, match="2000004 rational points"):
            delta_bruteforce(self.vanishing_at_one_one(2000003))
