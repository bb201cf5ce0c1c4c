import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsys import delta, exactmath
from cohsys.delta import (
    DeltaInput,
    _pencil_coefficient_matrices,
    delta_bruteforce,
    delta_closure,
    delta_formula,
    pencil_min_rank,
    sample_delta_input,
)
from cohsys.exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    BinaryForm,
    FieldMatrix,
    PrimeField,
    form_determinant,
    vanishing_divisor_degree,
)
from oracles import add, mul, scale

F = PrimeField(101)


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
        with pytest.raises(ValueError):
            DeltaInput(2, 1, (BinaryForm(F, (1, 2, 3)),), (BinaryForm.zero(F),))

    def test_rejects_wrong_family_length(self):
        x = BinaryForm(F, (1, 0))
        with pytest.raises(ValueError, match="shape"):
            DeltaInput(2, 2, (x, x), (x,))

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            DeltaInput(2, 0, (), ())


class TestOracles:
    def test_all_zero(self):
        z = BinaryForm.zero(F)
        inp = DeltaInput(2, 2, (z, z), (z, z))
        assert delta_bruteforce(inp) == 0
        assert delta_closure(inp) == 0

    def test_equal_pair_cancels(self):
        f = BinaryForm(F, (3, 5))
        inp = DeltaInput(2, 1, (f,), (f,))
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
            mixed = DeltaInput(
                inp.a,
                inp.t,
                tuple(add(scale(g, 2), scale(gp, 7)) for g, gp in zip(inp.g, inp.g_prime)),
                tuple(add(scale(g, 1), scale(gp, 4)) for g, gp in zip(inp.g, inp.g_prime)),
            )
            assert delta_closure(inp) == delta_closure(mixed)
            assert delta_bruteforce(inp) == delta_bruteforce(mixed)

    def test_scalar_rescaling_invariance(self):
        for seed in range(10):
            inp = sample_delta_input(2, 3, 101, seed)
            scaled = DeltaInput(
                inp.a,
                inp.t,
                tuple(scale(g, 9) for g in inp.g),
                tuple(scale(gp, 9) for gp in inp.g_prime),
            )
            assert delta_bruteforce(inp) == delta_bruteforce(scaled)
            assert delta_closure(inp) == delta_closure(scaled)


class TestPencilMinRank:
    def test_row_bound(self):
        # two coefficient rows bound the rank by 2 regardless of the columns
        x = BinaryForm(F, (1, 0))
        y = BinaryForm(F, (0, 1))
        assert pencil_min_rank([x, y, x, y], [y, x, y, x], 1, F) <= 2

    def test_zero_first_family(self):
        # rank 0 at (1 : 0) ends the sweep before any minor, whatever the
        # generic rank of the second family
        field = PrimeField(7)
        rng = random.Random(3)
        second = [BinaryForm(field, tuple(rng.randrange(7) for _ in range(4))) for _ in range(3)]
        first = [BinaryForm.zero(field)] * 3
        _, B = _pencil_coefficient_matrices(first, second, 3)
        assert FieldMatrix(field, B).rank() == 3
        assert all_minors_min_rank(first, second, 3, field) == 0
        assert pencil_min_rank(first, second, 3, field) == 0

    def test_identity_pencil(self):
        x = BinaryForm(F, (1, 0))
        y = BinaryForm(F, (0, 1))
        # columns (x, y) vs (y, x): det = b^2 - c^2 factors rationally
        assert pencil_min_rank([x, y], [y, x], 1, F) == 1


def all_minors_min_rank(first, second, slot_degree, field):
    """Reference: every minor of every size, the sweep ``pencil_min_rank`` replaces."""
    ncols = len(first)
    nrows = slot_degree + 1
    coeff = [[f.coeffs if not f.is_zero else (0,) * nrows for f in fam] for fam in (first, second)]
    entries = [
        [BinaryForm(field, (coeff[0][c][r], coeff[1][c][r])) for c in range(ncols)]
        for r in range(nrows)
    ]
    for size in range(1, min(nrows, ncols) + 1):
        minors = []
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(ncols), size):
                det = form_determinant(
                    [[entries[r][c] for c in csel] for r in rsel], field, [0] * size, [1] * size
                )
                if not det.is_zero:
                    minors.append(det)
        if not minors:
            return size - 1
        if vanishing_divisor_degree(minors) >= 1:
            return size - 1
    return min(nrows, ncols)


def draw_pencil(rng, kind, a, t, field):
    """Two families of t forms of degree a - 1, drawn to reach rank drops."""
    q = field.q

    def form(coeffs):
        return BinaryForm(field, tuple(coeffs))

    def uniform(zero_prob=0.0):
        return form(0 if rng.random() < zero_prob else rng.randrange(q) for _ in range(a))

    if kind == "generic":
        return [uniform() for _ in range(t)], [uniform() for _ in range(t)]
    if kind == "sparse":
        return [uniform(0.7) for _ in range(t)], [uniform(0.7) for _ in range(t)]
    if kind == "equal-pair":
        first = [uniform() for _ in range(t)]
        second = [scale(f, rng.randrange(q)) if rng.random() < 0.7 else uniform() for f in first]
        return first, second

    def combo(basis):
        acc = BinaryForm.zero(field)
        for b in basis:
            acc = add(acc, scale(b, rng.randrange(q)))
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
    linear = form((rng.randrange(q), rng.randrange(q)))
    if a < 2 or linear.is_zero:
        return [uniform() for _ in range(t)], [uniform() for _ in range(t)]

    def multiple():
        return mul(linear, form(rng.randrange(q) for _ in range(a - 1)))

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
        st.sampled_from([2, 3, 5, 7, 101]),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_all_minors(self, seed, kind, q, a, t):
        rng = random.Random(seed)
        field = PrimeField(q)
        first, second = draw_pencil(rng, kind, a, t, field)
        expected = all_minors_min_rank(first, second, a - 1, field)
        assert pencil_min_rank(first, second, a - 1, field) == expected

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
        assert pencil_min_rank(first, second, 5, field) == all_minors_min_rank(
            first, second, 5, field
        )


class TestPencilMinRankOrder:
    @staticmethod
    def counted(monkeypatch):
        import cohsys.delta as delta_mod

        sizes = []

        def wrapper(entries, *args):
            sizes.append(len(entries))
            return form_determinant(entries, *args)

        monkeypatch.setattr(delta_mod, "form_determinant", wrapper)
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

    def test_drop_at_the_second_family(self, monkeypatch):
        # b*A + c*B = [[b + c, 0], [0, b]]: B of rank 1 sets the bound at
        # (0 : 1), and the 1 x 1 minors b + c and b share no zero, so the
        # 2 x 2 minor is never computed
        field = PrimeField(7)
        x, y = BinaryForm(field, (1, 0)), BinaryForm(field, (0, 1))
        z = BinaryForm.zero(field)
        sizes = self.counted(monkeypatch)
        assert pencil_min_rank([x, y], [x, z], 1, field) == 1
        assert sizes and set(sizes) == {1}


def per_point_min_rank(inp):
    """Reference: the rational scan ``delta_bruteforce`` replaces, one rank per point."""
    q = inp.field.q
    A, B = _pencil_coefficient_matrices(inp.g, inp.g_prime, inp.a - 1)
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
        inp = DeltaInput(a, t, tuple(first), tuple(second))
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
        inp = DeltaInput(a, t, tuple(first), tuple(second))
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
        x, y = BinaryForm(field, (1, 0)), BinaryForm(field, (0, 1))
        z = BinaryForm.zero(field)
        inp = DeltaInput(2, 2, (x, y), (z, z))
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
        return DeltaInput(1, 1, (BinaryForm(field, (1,)),), (BinaryForm(field, (q - 1,)),))

    def test_bound_counts_points(self):
        # the scan visits the q + 1 lines of F_q^2, the unit the guard bounds
        assert 1999993 + 1 <= COST_GUARD_MAX_SUBSPACES < 2000003 + 1
        assert delta_bruteforce(self.vanishing_at_one_one(1999993)) == 0
        with pytest.raises(ValueError, match="2000004 rational points"):
            delta_bruteforce(self.vanishing_at_one_one(2000003))

    def test_allow_large(self):
        inp = self.vanishing_at_one_one(2**31 - 1)
        with pytest.raises(ValueError):
            delta_bruteforce(inp)
        assert delta_bruteforce(inp, allow_large=True) == 0
