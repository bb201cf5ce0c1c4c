import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohsys import bundles
from cohsys.bundles import (
    _count_scan,
    _missing_summands,
    _twist_matrix,
    SectionPairing,
    SplittingType,
    cohomology,
    combine_sections,
    generic_splitting,
    kernel_splitting,
    max_subbundle_degree,
    saturate,
)
from cohsys.exactmath import (
    BinaryForm,
    FieldMatrix,
    PrimeField,
    generic_rank,
    pack_bits,
    stacked_combination,
    unpack_bits,
    vanishing_divisor_degree,
)
from cohsys.numerology import decompose
from cohsys.stability import SystemInstance, sample_instance
from oracles import (
    componentwise_sum,
    endomorphism_type,
    evaluate,
    lockstep_kernel,
    lockstep_scan,
    mul,
    per_basis_saturations,
    row_swap_rank,
    shatz_embedding_exists,
    splitting_type,
)

F = PrimeField(101)
X = BinaryForm(F, (1, 0))
Y = BinaryForm(F, (0, 1))
ZERO = BinaryForm.zero(F)
# forms over F_2, coefficients that read the same over any field
X2, XY, Y2 = (BinaryForm(PrimeField(2), c) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
ONE2, ZERO2 = BinaryForm(PrimeField(2), (1,)), BinaryForm.zero(PrimeField(2))


def rand_form(rng, degree):
    return BinaryForm(F, tuple(rng.randrange(101) for _ in range(degree + 1)))


types = st.lists(st.integers(-5, 6), min_size=1, max_size=6).map(
    lambda xs: splitting_type(*xs)
)


class TestSplittingType:
    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            SplittingType((1, 2))

    def test_dual(self):
        assert splitting_type(3, 1, -2).dual() == splitting_type(2, -1, -3)


class TestGenericSplitting:
    def test_examples(self):
        assert generic_splitting(3, 7) == splitting_type(3, 2, 2)
        assert generic_splitting(4, 6) == splitting_type(2, 2, 1, 1)
        assert generic_splitting(2, -3) == splitting_type(-1, -2)

    @given(st.integers(1, 30), st.integers(-200, 200))
    @settings(max_examples=150)
    def test_balanced_and_rigid(self, n, d):
        t = generic_splitting(n, d)
        assert t.rank == n and t.degree == d
        assert t[0] - t[-1] <= 1
        assert cohomology(endomorphism_type(t), 0)[1] == 0

    @given(types)
    @settings(max_examples=100)
    def test_unbalanced_types_have_h1_end(self, t):
        h1 = cohomology(endomorphism_type(t), 0)[1]
        if t[0] - t[-1] >= 2:
            assert h1 > 0
        else:
            assert h1 == 0


class TestCohomology:
    def test_examples(self):
        assert cohomology(splitting_type(1, 1), 0) == (4, 0)
        assert cohomology(splitting_type(-2), 0) == (0, 1)

    @given(types, st.integers(-8, 8))
    @settings(max_examples=150)
    def test_riemann_roch(self, t, j):
        h0, h1 = cohomology(t, j)
        assert h0 - h1 == sum(a + j + 1 for a in t)


class TestMaxSubbundleDegree:
    def test_examples(self):
        assert max_subbundle_degree(splitting_type(3, 2, 2), 2) == 5
        assert max_subbundle_degree(splitting_type(2, 2, 1, 1), 1) == 2
        assert max_subbundle_degree(splitting_type(3, 2, 2), 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            max_subbundle_degree(splitting_type(1, 1), 3)


class TestShatz:
    def test_examples(self):
        assert shatz_embedding_exists(splitting_type(3, 3, 2), splitting_type(4, 4), 1)
        assert not shatz_embedding_exists(splitting_type(3, 3, 2), splitting_type(4, 3), 1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            shatz_embedding_exists(splitting_type(3, 3), splitting_type(4, 4), 1)

    @given(st.integers(2, 7), st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=150)
    def test_balanced_pairs_embed(self, n, d, k):
        # the balanced bundle and balanced quotient coming from the Euclidean
        # decomposition always pass the criterion when l >= 1
        if k >= n:
            return
        num = decompose(n, d, k)
        if num.l <= 0:
            return
        e = SplittingType(
            tuple([num.a] * (n - num.t) + [num.a - 1] * num.t)
        )
        g = SplittingType(
            tuple([num.a + num.l + 1] * num.m + [num.a + num.l] * (n - k - num.m))
        )
        assert shatz_embedding_exists(e, g, k)


class TestKernelSplitting:
    def test_surjective_pencil(self):
        src = splitting_type(-1, -1)
        assert kernel_splitting(src, splitting_type(0), [[X, Y]]) == splitting_type(-2)

    def test_zero_matrix(self):
        src = splitting_type(-1, -1)
        assert kernel_splitting(src, splitting_type(0), [[ZERO, ZERO]]) == src

    def test_coordinate_kernel(self):
        src = splitting_type(-1, -1)
        assert kernel_splitting(src, splitting_type(0), [[X, ZERO]]) == splitting_type(-1)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            kernel_splitting(
                splitting_type(-1), splitting_type(0), [[BinaryForm(F, (1, 2, 3))]]
            )

    def test_rank_zero_source_checks_shape(self):
        # the zero source still needs a matrix with no columns
        assert kernel_splitting(SplittingType(()), splitting_type(0), [[]]).rank == 0
        with pytest.raises(ValueError):
            kernel_splitting(SplittingType(()), splitting_type(0), [[X]])
        with pytest.raises(ValueError):
            kernel_splitting(SplittingType(()), splitting_type(0), [])

    def test_injective_map(self):
        assert (
            kernel_splitting(splitting_type(-1), splitting_type(0), [[X]]).rank == 0
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_degree_accounting(self, seed):
        # random 2x2 maps O(s)^2 -> O(s + delta)^2: kernel degree equals
        # deg source minus the degree of the image subsheaf
        rng = random.Random(seed)
        s = rng.randrange(-2, 2)
        delta = rng.randrange(0, 3)
        src = splitting_type(s, s)
        tgt = splitting_type(s + delta, s + delta)
        entries = [[rand_form(rng, delta) for _ in range(2)] for _ in range(2)]
        kern = kernel_splitting(src, tgt, entries)
        assert kern.rank <= 2
        if kern.rank:
            assert all(b <= s for b in kern)


class TestSaturate:
    def test_nowhere_vanishing_section(self):
        res = saturate(splitting_type(1, 1), [(X, Y)])
        assert (res.rank, res.degree) == (1, 0)
        assert res.quotient_type == splitting_type(2)

    def test_empty_sections(self):
        res = saturate(splitting_type(1, 1), [])
        assert (res.rank, res.degree) == (0, 0)
        assert res.quotient_type == splitting_type(1, 1)

    def test_vanishing_section(self):
        res = saturate(splitting_type(1, 1), [(X, ZERO)])
        assert (res.rank, res.degree) == (1, 1)
        assert res.quotient_type == splitting_type(1)

    def test_degree_profile_checked(self):
        with pytest.raises(ValueError):
            saturate(splitting_type(1, 1), [(BinaryForm(F, (1, 2, 3)), ZERO)])

    def test_rank_degree_bookkeeping(self):
        rng = random.Random(12)
        for _ in range(30):
            t = splitting_type(*(rng.randrange(0, 4) for _ in range(3)))
            secs = [
                tuple(rand_form(rng, a) for a in t)
                for _ in range(rng.randrange(0, 3))
            ]
            res = saturate(t, secs)
            assert res.rank + res.quotient_type.rank == t.rank
            assert res.degree + res.quotient_type.degree == t.degree

    def test_single_section_degree_matches_divisor_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            t = splitting_type(*(rng.randrange(0, 4) for _ in range(rng.randrange(2, 5))))
            sec = tuple(rand_form(rng, a) for a in t)
            if all(f.is_zero for f in sec):
                continue
            res = saturate(t, [sec])
            oracle = vanishing_divisor_degree([f for f in sec if not f.is_zero])
            assert res.degree == oracle

    def test_monotone_in_sections(self):
        rng = random.Random(4)
        t = splitting_type(2, 1, 1)
        secs = [tuple(rand_form(rng, a) for a in t) for _ in range(3)]
        prev = (0, 0)
        for i in range(4):
            res = saturate(t, secs[:i])
            cur = (res.rank, res.degree)
            assert cur >= prev
            prev = cur


class TestCombineSections:
    """The combination on the padded layout against a per-component sum of forms."""

    @given(
        st.lists(st.integers(-2, 4), min_size=1, max_size=4),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_componentwise_sum(self, degrees, q, k, seed):
        field = PrimeField(q)
        t = splitting_type(*degrees)
        rng = random.Random(seed)

        def component(a):
            # zero components in every slot, residues up to q - 1 in the rest
            if a < 0 or rng.random() < 0.25:
                return BinaryForm.zero(field)
            return BinaryForm(field, tuple(rng.randrange(q) for _ in range(a + 1)))

        sections = [tuple(component(a) for a in t) for _ in range(k)]
        # a stack of coefficient vectors, combined in one call
        stack = [
            [rng.choice([0, 1, q - 1, rng.randrange(q)]) for _ in range(k)]
            for _ in range(rng.randrange(1, 5))
        ]
        got = combine_sections(field, t, sections, stack)
        assert got == [componentwise_sum(field, sections, coeffs) for coeffs in stack]
        assert all(f.is_zero or f.degree == a for section in got for f, a in zip(section, t))


def span_sections(field, t, vectors, basis):
    """The sections sum_l basis[i][l] * vectors[l], split into components."""
    q = field.q
    out = []
    for row in basis:
        vec = [sum(c * v[i] for c, v in zip(row, vectors)) % q for i in range(len(vectors[0]))]
        comps, pos = [], 0
        for a in t:
            dim = max(0, a + 1)
            comps.append(BinaryForm(field, tuple(vec[pos : pos + dim])))
            pos += dim
        out.append(tuple(comps))
    return out


class TestSectionPairing:
    """The stacked saturation against ``saturate`` of each span on its own."""

    @given(
        st.lists(st.integers(-1, 4), min_size=1, max_size=4),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_saturate(self, degrees, q, k, w, seed):
        field = PrimeField(q)
        t = splitting_type(*degrees)
        rng = random.Random(seed)
        h0 = sum(max(0, a + 1) for a in t)
        vectors = [[rng.randrange(q) for _ in range(h0)] for _ in range(k)]
        # arbitrary coefficient rows, dependent ones included; at q = 2**31 - 1
        # their large residues exercise the overflow rule of the combination
        bases = [[[rng.randrange(q) for _ in range(k)] for _ in range(w)] for _ in range(6)]
        spans = [span_sections(field, t, vectors, basis) for basis in bases]
        if w == 1:  # rho = n - 1 needs a nonzero section
            keep = [i for i, (sec,) in enumerate(spans) if any(not f.is_zero for f in sec)]
            bases = [bases[i] for i in keep]
            spans = [spans[i] for i in keep]
        if not bases:
            return
        sections = span_sections(field, t, vectors, np.eye(k, dtype=int).tolist())
        got = per_basis_saturations(SectionPairing(field, t, sections), np.array(bases))
        assert got == [saturate(t, secs) for secs in spans]

    @pytest.mark.parametrize("q", [3, 2**31 - 1])
    def test_twist_matrix_is_linear_in_the_sections(self, q):
        # M_j(W) = (B (x) I_{j+1}) M_j(V), the identity the stack rests on
        field = PrimeField(q)
        rng = random.Random(q)
        t = splitting_type(3, 1, 0, -1)
        h0 = sum(max(0, a + 1) for a in t)
        vectors = [[rng.randrange(q) for _ in range(h0)] for _ in range(3)]
        sections = span_sections(field, t, vectors, np.eye(3, dtype=int).tolist())
        pairing = SectionPairing(field, t, sections)
        basis = [[rng.randrange(q) for _ in range(3)] for _ in range(2)]
        one = splitting_type(0)
        for j in range(-2, 6):
            m = pairing.at(j)
            got = stacked_combination(np.array([basis]), m, q).reshape(2 * m.shape[1], m.shape[2])
            want = [
                _twist_matrix(t.dual(), one, [list(reversed(sec))], j)
                for sec in span_sections(field, t, vectors, basis)
            ]
            assert (got == np.vstack(want)).all()

    def test_pairing_is_packed_over_f2(self):
        # over F_2, M_j(V) is kept as bit rows, and the probe's XOR of the
        # blocks that B picks is the packed M_j(W)
        field = PrimeField(2)
        rng = random.Random(2)
        t = splitting_type(9, 3, 0, -1)
        h0 = sum(max(0, a + 1) for a in t)
        vectors = [[rng.randrange(2) for _ in range(h0)] for _ in range(3)]
        sections = span_sections(field, t, vectors, np.eye(3, dtype=int).tolist())
        pairing = SectionPairing(field, t, sections)
        one = splitting_type(0)
        for j in range(-2, 20):
            m = pairing.at(j)
            assert m.dtype == np.uint64
            per_section = [_twist_matrix(t.dual(), one, [list(reversed(s))], j) for s in sections]
            assert (m == pack_bits(np.stack(per_section))).all()
            assert m.shape[2] == -(-cohomology(t.dual(), j)[0] // 64)

    @pytest.mark.parametrize("q", [2, 3])
    def test_stack_probes_are_packed_over_f2_only(self, q):
        field = PrimeField(q)
        t = splitting_type(2, 2, 0)
        sections = [(X2, XY, ONE2), (XY, Y2, ZERO2), (Y2, X2, ONE2)]
        sections = [tuple(BinaryForm(field, f.coeffs) for f in s) for s in sections]
        bases = np.array([[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 1]]])
        pairing = SectionPairing(field, t, sections)
        with mock.patch.object(bundles, "packed_rank", wraps=bundles.packed_rank) as packed:
            got = per_basis_saturations(pairing, bases)
        assert packed.called == (q == 2)
        assert got == [saturate(t, combine_sections(field, t, sections, b)) for b in bases]

    @given(
        st.integers(1, 8),
        st.integers(1, 150),
        st.sampled_from([0.05, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    @example(rows=5, cols=130, density=0.05, seed=0)  # three words per row
    @settings(max_examples=60, deadline=None)
    def test_lone_packed_probe_matches_field_matrix_rank(self, rows, cols, density, seed):
        # a packed stack of one is ranked packed, with no unpacking first,
        # and checked against the row-swap elimination of the unpacked matrix
        bits = (np.random.default_rng(seed).random((1, rows, cols)) < density).astype(np.int64)
        words = pack_bits(bits)
        want = cols - row_swap_rank(2, unpack_bits(words[0], cols))
        assert bundles._twist_kernel_dimension(PrimeField(2), words, cols).tolist() == [want]

    @given(
        st.lists(st.integers(-3, 5), min_size=1, max_size=4),
        st.sampled_from([2, 3, 101]),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_values_match_evaluation(self, degrees, q, k, data):
        # zero components, forms divisible by x (last coefficient 0) or by y
        # (first coefficient 0), and the zero components of negative summands
        field = PrimeField(q)
        t = splitting_type(*degrees)

        def component(a):
            kind = data.draw(st.sampled_from(["zero", "x", "y", "any"]))
            if a < 0 or kind == "zero":
                return BinaryForm.zero(field)
            coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=a + 1, max_size=a + 1))
            if kind == "x":
                coeffs[-1] = 0
            elif kind == "y":
                coeffs[0] = 0
            return BinaryForm(field, tuple(coeffs))

        sections = [tuple(component(a) for a in t) for _ in range(k)]
        got = SectionPairing(field, t, sections)._point_values
        points = [(1, 0), (0, 1), (1, 1)]
        want = [[[evaluate(f, b, c) for f in s] for b, c in points] for s in sections]
        assert got.shape == (k, 3, t.rank)
        assert got.tolist() == want

    @given(
        st.sampled_from(["uniform", "vanishing", "one-component"]),
        st.lists(st.integers(-1, 5), min_size=1, max_size=4),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(1, 4),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_generic_ranks_match_generic_rank(self, kind, degrees, q, k, w, seed):
        # "vanishing": every component is a multiple of x*y*(x - y), so the
        # values at (1 : 0), (0 : 1) and (1 : 1) are zero and generic_rank
        # decides; "one-component": every span has rank <= 1 < min(w, n)
        field = PrimeField(q)
        t = splitting_type(*degrees)
        rng = random.Random(seed)
        three_points = BinaryForm(field, (0, 1, q - 1, 0))
        zero = BinaryForm.zero(field)

        def component(i, a):
            if a < 0 or rng.random() < 0.2 or (kind == "one-component" and i > 0):
                return zero
            if kind == "vanishing":
                if a < 3:
                    return zero
                cofactor = BinaryForm(field, tuple(rng.randrange(q) for _ in range(a - 2)))
                return zero if cofactor.is_zero else mul(three_points, cofactor)
            return BinaryForm(field, tuple(rng.randrange(q) for _ in range(a + 1)))

        sections = [tuple(component(i, a) for i, a in enumerate(t)) for _ in range(k)]
        bases = [[[rng.randrange(q) for _ in range(k)] for _ in range(w)] for _ in range(5)]
        want = [
            generic_rank(
                [componentwise_sum(field, sections, row) for row in basis], [0] * w, t.degrees
            )
            for basis in bases
        ]
        assert SectionPairing(field, t, sections)._generic_ranks(np.array(bases)) == want

    def test_generic_rank_above_every_point_rank(self):
        # det [[x^2 - x*y, 0], [0, y]] = x*y*(x - y): rank 1 at all three
        # points, generic rank 2
        sections = [(BinaryForm(F, (1, 100, 0)), ZERO), (ZERO, Y)]
        t = splitting_type(2, 1)
        for b, c in [(1, 0), (0, 1), (1, 1)]:
            values = [[evaluate(f, b, c) for f in sec] for sec in sections]
            assert FieldMatrix.from_rows(F, values).rank() == 1
        pairing = SectionPairing(F, t, sections)
        assert pairing._generic_ranks(np.array([[[1, 0], [0, 1]], [[1, 1], [0, 1]]])) == [2, 2]


def probe_count(run):
    """run()'s result and the stack size of each twist probe it made."""
    calls = []
    real = bundles._twist_kernel_dimension

    def counted(field, stack, cols=None):
        calls.append(len(stack))
        return real(field, stack, cols)

    with mock.patch.object(bundles, "_twist_kernel_dimension", counted):
        return run(), calls


def probe_twists(run):
    """run()'s result and the (twist, live count) of each probe its kernel scans made."""
    calls = []
    real = bundles._count_scan

    def recorded(source, target, rhos, probe):
        def traced(live, j):
            calls.append((j, len(live)))
            return probe(live, j)

        return real(source, target, rhos, traced)

    with mock.patch.object(bundles, "_count_scan", recorded):
        return run(), calls


def lockstep(run):
    """run() with the lock-step reference scan in place of ``_count_scan``, and
    ``kernel_splitting`` through it with no maximal-minor read."""
    with mock.patch.object(bundles, "_count_scan", lockstep_scan):
        with mock.patch.object(bundles, "kernel_splitting", lockstep_kernel):
            return probe_count(run)


def checked_scan(source, target, rhos, probe):
    """``_count_scan``'s kernels, checked against ``lockstep_scan`` on the same probe.

    Each map's twists are recorded under both scans.  A map is probed at most
    once per twist, and at most one probe more than under the lock-step scan,
    that one at its balanced twist J = -beta - 1, where floor = rho * beta + r.
    A map whose J lies at least two steps past the base twist takes exactly
    one probe when it has rank one (h(J) names its summand) or when its
    kernel is balanced at its floor with r <= 1.
    """

    def traced(scan):
        twists = [[] for _ in rhos]

        def recorded(live, j):
            for m in live:
                twists[m].append(j)
            return probe(live, j)

        return scan(source, target, rhos, recorded), twists

    got, twists = traced(_count_scan)
    want, lockstep_twists = traced(lockstep_scan)
    assert got == want
    base = -source[0] - 1
    for m, rho in enumerate(rhos):
        if not rho:
            continue
        floor = source.degree - max_subbundle_degree(target, source.rank - rho)
        beta, r = divmod(floor, rho)
        assert len(set(twists[m])) == len(twists[m])
        assert len([j for j in twists[m] if j != -beta - 1]) <= len(lockstep_twists[m])
        balanced = r <= 1 and sum(got[m]) == floor and got[m][-1] >= beta
        if -beta - 1 >= base + 2 and (rho == 1 or balanced):
            assert len(twists[m]) == 1
    return got


def costed(run):
    """run() with every kernel scan it makes checked by ``checked_scan``."""
    with mock.patch.object(bundles, "_count_scan", checked_scan):
        return run()


def shared_root_sections(field, t, k, rng, kind):
    """k random sections of type t; under "shared-root" every component is a
    multiple of one product of one or two linear forms, so the saturation of
    their span has positive degree, and under "y-multiple" of y."""
    q = field.q
    root = BinaryForm(field, (1,))
    if kind == "shared-root":
        for _ in range(rng.randrange(1, 3)):
            root = mul(root, BinaryForm(field, (1, rng.randrange(q))))
    elif kind == "y-multiple":
        root = BinaryForm(field, (0, 1))

    def component(a):
        if rng.random() < 0.15:
            return BinaryForm.zero(field)
        if root.degree == 0:
            return BinaryForm(field, tuple(rng.randrange(q) for _ in range(max(0, a + 1))))
        cofactor = a - root.degree
        if cofactor < 0:
            return BinaryForm.zero(field)
        return mul(root, BinaryForm(field, tuple(rng.randrange(q) for _ in range(cofactor + 1))))

    return [tuple(component(a) for a in t) for _ in range(k)]


class TestLastSummandRead:
    """The one-probe read of a lone map's last kernel summand against the lock-step scan."""

    @given(
        st.sampled_from(["rank-one", "unbalanced", "shared-root", "generation"]),
        st.integers(1, 4),
        st.sampled_from([2, 3, 7, 101, 2**31 - 1]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_splitting_matches_lockstep(self, kind, n, q, seed):
        # "rank-one": n - 1 sections, a rank-1 kernel; "unbalanced": one
        # section of a spread type; "shared-root": the floor undershoots deg N,
        # so j* overshoots the natural end; "generation": O^k -> E
        field = PrimeField(q)
        rng = random.Random(seed)
        low, high = (-2, 7) if kind == "unbalanced" else (0, 5)
        t = splitting_type(*(rng.randrange(low, high) for _ in range(n + 1)))
        k = {"rank-one": n, "unbalanced": 1}.get(kind, rng.randrange(1, n + 3))
        sections = shared_root_sections(field, t, k, rng, kind)
        if kind == "generation":
            source = SplittingType((0,) * k)
            entries = [[sec[i] for sec in sections] for i in range(t.rank)]
            run = lambda: bundles.kernel_splitting(source, t, entries)
        else:
            run = lambda: saturate(t, sections)
        got = costed(run)
        want, _ = lockstep(run)
        assert got == want

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=4),
        st.sampled_from([3, 7, 101, 2**31 - 1]),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_saturate_stack_matches_lockstep(self, degrees, q, w, seed):
        # every section but the last shares a root; spans of those finish
        # early, and the one span through the last section finishes late, so
        # the tail of the scan often goes lone
        field = PrimeField(q)
        t = splitting_type(*degrees)
        rng = random.Random(seed)
        k = w + 2
        sections = shared_root_sections(field, t, k - 1, rng, "shared-root")
        sections += shared_root_sections(field, t, 1, rng, "uniform")
        early = [[rng.randrange(q) for _ in range(k - 1)] + [0] for _ in range(5 * w)]
        bases = [early[i : i + w] for i in range(0, 5 * w, w)]
        bases.insert(rng.randrange(6), [[rng.randrange(q) for _ in range(k)] for _ in range(w)])
        if w == 1:  # rho = n - 1 needs a nonzero section
            bases = [
                b for b in bases
                if any(not f.is_zero for f in combine_sections(field, t, sections, b)[0])
            ]
        if not bases:
            return
        run = lambda: per_basis_saturations(SectionPairing(field, t, sections), np.array(bases))
        got = costed(run)
        want, _ = lockstep(run)
        assert got == want

    def test_rank_one_kernel_takes_no_probe(self):
        # the minors of (x, y) are y and x, coprime: N = O(-2) from deg A - deg B
        run = lambda: bundles.kernel_splitting(splitting_type(-1, -1), splitting_type(0), [[X, Y]])
        kern, probes = probe_count(run)
        assert kern == splitting_type(-2)
        assert probes == []
        assert lockstep(run) == (kern, [1, 1])

    def test_whole_space_saturation_takes_no_probe(self):
        # (3, 24, 2)@101: the kernel O(-24) of E* -> O^2 is read from its
        # 2 x 2 minors; the lock-step scan steps through j = 8 ... 24
        inst = sample_instance(3, 24, 2, 101, 0)
        run = lambda: saturate(inst.splitting, list(inst.sections))
        sat, probes = probe_count(run)
        assert (sat.rank, sat.degree) == (2, 0)
        assert probes == []
        want, lockstep_probes = lockstep(run)
        assert want == sat
        assert len(lockstep_probes) == 17

    def test_stack_tail_goes_lone(self):
        # in O(5)^3 both kernels have rank two and the floor -15 = 2 * (-8) + 1,
        # so one balanced probe at J = 7 reads both maps and settles neither.
        # The pairing of (x^5, 0, 0) has kernel O(-5)^2, found at j = 5;
        # (x^5, x y^4, 0) has kernel O(-5) + O(-9), above the floor, so once
        # its O(-5) is found it is left alone and its O(-9) is read in one
        # probe at j* = -5 + 15 = 10, where the lock-step scan steps through
        # j = 6 ... 9
        t = splitting_type(5, 5, 5)
        x5 = BinaryForm(F, (1, 0, 0, 0, 0, 0))
        xy4 = BinaryForm(F, (0, 0, 0, 0, 1, 0))
        sections = [(x5, xy4, ZERO), (x5, ZERO, ZERO)]
        pairing = SectionPairing(F, t, sections)
        run = lambda: per_basis_saturations(pairing, np.array([[[1, 0]], [[0, 1]]]))
        got, probes = probe_count(run)
        want, lockstep_probes = lockstep(run)
        assert got == want == costed(run)
        assert [r.quotient_type for r in got] == [splitting_type(9, 5), splitting_type(5, 5)]
        assert probe_twists(run)[1] == [(7, 2), (5, 2), (10, 1)]
        assert probes == [2, 2, 1]
        assert lockstep_probes == [2, 1, 1, 1, 1]

    def test_floor_tripwire(self):
        # a probe that reports no kernel sections at j* contradicts the floor
        with pytest.raises(RuntimeError, match="degree bounds"):
            _count_scan(splitting_type(-1, -1), splitting_type(0), [1], lambda live, j: np.zeros(1))

    def test_rank_one_above_source_tripwire(self):
        # O^3 -> O(3)^2: a rank-one kernel has floor -6, read at J = 5, where
        # h(5) = 7 would name O(1), above the source's summands O(0)
        source, target = splitting_type(0, 0, 0), splitting_type(3, 3)
        with pytest.raises(RuntimeError, match="above the source"):
            _count_scan(source, target, [1, 2], lambda live, j: np.full(len(live), 7))

    def test_below_floor_tripwire(self):
        # the kernel of the zero map O + O(-1) -> O is the source, of degree
        # -1 = floor; a probe that reports no sections at j = 0 bounds the
        # degree by -2, below the floor
        with pytest.raises(RuntimeError, match="below its floor"):
            source, target = splitting_type(0, -1), splitting_type(0)
            _count_scan(source, target, [2], lambda live, j: np.zeros(len(live), int))


class TestMinorRead:
    """A generically onto map with one source summand more than the target:
    its line kernel is read from the maximal minors, with no twist probe."""

    @given(
        st.sampled_from(["saturate", "generation"]),
        st.integers(2, 4),
        st.sampled_from([2, 3, 5, 101]),
        st.sampled_from(["uniform", "y-multiple", "shared-root"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_lockstep_scan(self, profile, n, q, kind, seed):
        # "saturate": the pairing E* -> O^(n-1) against n - 1 sections;
        # "generation": the evaluation O^(n+1) -> E.  Zero entries, and under
        # "y-multiple" and "shared-root" a common factor of every entry, which
        # lifts the kernel above its floor
        field = PrimeField(q)
        rng = random.Random(seed)
        t = splitting_type(*(rng.randrange(0, 5) for _ in range(n)))
        k = n - 1 if profile == "saturate" else n + 1
        sections = shared_root_sections(field, t, k, rng, kind)
        if profile == "saturate":
            source, target = t.dual(), SplittingType((0,) * k)
            entries = [[sec[n - 1 - i] for i in range(n)] for sec in sections]
        else:
            source, target = SplittingType((0,) * k), t
            entries = [[sec[i] for sec in sections] for i in range(n)]
        assume(generic_rank(entries, target.degrees, [-s for s in source]) == target.rank)
        got, probes = probe_count(lambda: kernel_splitting(source, target, entries))
        assert probes == []
        assert got == lockstep_kernel(source, target, entries)

    @pytest.mark.parametrize("constant", [7, 0])
    def test_a_degree_1000_summand_takes_no_probe(self, constant):
        # k = 1 on O(1000) + O: the balanced read of the count scan probes
        # the twist 999, a 1000 x 1001 elimination.  The saturation is the
        # line through the section, of the degree of its components' common
        # divisor: 0 beside a nonzero constant, all 1000 zeros of f beside 0
        f = rand_form(random.Random(1000), 1000)
        inst = SystemInstance(F, splitting_type(1000, 0), ((f, BinaryForm(F, (constant,))),))
        (section,) = inst.sections
        sat, probes = probe_count(lambda: saturate(inst.splitting, [section]))
        assert probes == []
        assert sat.rank == 1
        assert sat.degree == vanishing_divisor_degree([g for g in section if not g.is_zero])
        assert sat.degree == (0 if constant else 1000)


class TestFloorExit:
    """A map leaves the scan once the degree floor forces its unknown summands."""

    def test_generic_section_leaves_at_the_floor(self):
        # one generic section of O(8)^3: the kernel O(-12)^2 of its pairing
        # has degree -24 = 2 * (-12) + 0, the floor, so it is balanced there:
        # one probe at J = 11 reads h(11) = 0 = r, where the lock-step scan
        # steps from j = 8 and reads the summands at j = 12
        rng = random.Random(0)
        t = splitting_type(8, 8, 8)
        section = tuple(rand_form(rng, 8) for _ in range(3))
        run = lambda: saturate(t, [section])
        sat, twists = probe_twists(run)
        assert sat.quotient_type == splitting_type(12, 12)
        assert twists == [(11, 1)]
        with mock.patch.object(bundles, "_count_scan", lockstep_scan):
            want, lockstep_twists = probe_twists(run)
        assert want == sat
        assert [j for j, _ in lockstep_twists] == [8, 9, 10, 11, 12]

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_a_fake_kernel(self, source, target, data):
        # each map's kernel N has rho summands <= max(source) and degree at
        # least the floor; "at floor" lowers its last summand to meet it, and
        # "balanced" is O(beta + 1)^r + O(beta)^(rho - r) with floor =
        # rho * beta + r, for r = 0, 1 or more
        source, target = splitting_type(*source), splitting_type(*target)
        top = source[0]
        kernels = []
        for _ in range(data.draw(st.integers(1, 3))):
            rho = data.draw(st.integers(max(1, source.rank - target.rank), source.rank))
            floor = source.degree - max_subbundle_degree(target, source.rank - rho)
            assume(rho * top >= floor)  # else no such map exists
            shape = data.draw(st.sampled_from(["any", "at floor", "balanced"]), label="shape")
            if shape == "balanced":
                beta, r = divmod(floor, rho)
                kernels.append([beta + 1] * r + [beta] * (rho - r))
                continue
            drops = data.draw(st.lists(st.integers(0, 6), min_size=rho, max_size=rho))
            kern = sorted((top - d for d in drops), reverse=True)
            while sum(kern) < floor:
                kern[kern.index(min(kern))] += 1
            if shape == "at floor":
                kern[-1] -= sum(kern) - floor
            kernels.append(kern)

        def probe(live, j):
            return np.array([sum(max(0, b + j + 1) for b in kernels[m]) for m in live])

        rhos = [len(k) for k in kernels]
        got = checked_scan(source, target, rhos, probe)
        want = lockstep_scan(source, target, rhos, probe)
        assert got == want == kernels

    @pytest.mark.parametrize(
        "source, target, kernels, twists",
        [
            # floors -6 = 1 * (-6) + 0 and -3 = 2 * (-2) + 1: one probe at
            # each J = 5 and J = 1, from the base twist -1
            ((0, 0, 0), (3, 3), [[-6], [-1, -2]], [5, 1]),
            # floors -10 = 2 * (-5) + 0 and -5 = 3 * (-2) + 1: two maps share J = 4
            ((0, 0, 0, 0), (5, 5), [[-5, -5], [-1, -2, -2], [-5, -5]], [4, 1]),
            # floor -7 = 3 * (-3) + 2: r = 2 is not read, and the floor exit
            # ends the lock-step at j = 2
            ((0, 0, 0, 0), (7,), [[-2, -2, -3]], [0, 1, 2]),
        ],
    )
    def test_balanced_kernels_take_one_probe(self, source, target, kernels, twists):
        # kernels balanced at their floors, checked against the lock-step scan
        source, target = splitting_type(*source), splitting_type(*target)
        rhos = [len(k) for k in kernels]
        calls = []

        def probe(live, j):
            return np.array([sum(max(0, b + j + 1) for b in kernels[m]) for m in live])

        def recorded(live, j):
            calls.append(j)
            return probe(live, j)

        assert checked_scan(source, target, rhos, probe) == kernels
        _count_scan(source, target, rhos, recorded)
        assert calls == twists


class TestMissingSummands:
    """The one rule that settles a map of ``_count_scan`` from one count h(J)."""

    @staticmethod
    def draw(data, source, target, below=False):
        """A fake kernel's rank, floor and summands: at or above the floor,
        balanced at it, or of rank one; ``below`` drops it under the floor."""
        top = source[0]
        rho = data.draw(st.integers(max(1, source.rank - target.rank), source.rank))
        floor = source.degree - max_subbundle_degree(target, source.rank - rho)
        assume(rho * top >= floor)  # else no such map exists
        shape = data.draw(st.sampled_from(["any", "at floor", "balanced", "rank one"]))
        if shape == "rank one":
            assume(rho == 1)
        if shape == "balanced":
            beta, r = divmod(floor, rho)
            kern = [beta + 1] * r + [beta] * (rho - r)
        else:
            drops = data.draw(st.lists(st.integers(0, 6), min_size=rho, max_size=rho))
            kern = sorted((top - d for d in drops), reverse=True)
            while sum(kern) < floor:
                kern[kern.index(min(kern))] += 1
            if shape == "at floor":
                kern[-1] -= sum(kern) - floor
        if below:
            kern[-1] -= sum(kern) - floor + data.draw(st.integers(1, 3))
        return rho, floor, kern

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_reads_the_true_summands_or_declines(self, source, target, data):
        # every twist j a lock-step can stop at, with the summands >= -j
        # found, and every J >= j up to past the one where all have sections
        source, target = splitting_type(*source), splitting_type(*target)
        rho, floor, kern = self.draw(data, source, target)
        base = -source[0] - 1
        for j in range(base, max(base, -kern[-1] + 1) + 1):
            found = [b for b in kern if b >= -j]
            u, rest, missing = rho - len(found), floor - sum(found), kern[len(found) :]
            for twist in range(j, max(j, -kern[-1] + 2) + 1):
                h = sum(max(0, b + twist + 1) for b in kern)
                assert h - floor - rho * (twist + 1) >= 0  # slack
                got = _missing_summands(rho, floor, len(found), rest, j, twist, h)
                assert got is None or got == missing
                if not u or (u == 1 and rest >= -twist - 1):
                    assert got == missing
                at_floor = sum(kern) == floor and all(b >= -twist - 1 for b in missing)
                if at_floor and sum(b + twist + 1 for b in missing) <= 1:
                    assert got == missing

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_kernel_below_its_floor_trips(self, source, target, data):
        # once every summand has sections, slack = deg N - floor < 0
        source, target = splitting_type(*source), splitting_type(*target)
        rho, floor, kern = self.draw(data, source, target, below=True)
        base = -source[0] - 1
        j = data.draw(st.integers(base, max(base, -kern[-1] + 1)), label="j")
        low = max(j, -kern[-1] - 1)
        twist = data.draw(st.integers(low, low + 6), label="J")
        found = [b for b in kern if b >= -j]
        h = sum(max(0, b + twist + 1) for b in kern)
        with pytest.raises(RuntimeError, match="below its floor"):
            _missing_summands(rho, floor, len(found), floor - sum(found), j, twist, h)
