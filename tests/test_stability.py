import contextlib
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unittest import mock

from cohsys import bundles, exactmath, stability
from cohsys.bundles import SectionPairing, cohomology, max_subbundle_degree, saturate
from cohsys.classification import AlphaInterval, necessary_region
from cohsys.exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    FieldMatrix,
    PrimeField,
    stack_size,
    vanishing_divisor_degree,
)
from cohsys.stability import (
    Candidate,
    SystemInstance,
    _rational_candidates,
    _subspace_count,
    check_global_generation,
    critical_alphas,
    echelon_stacks,
    is_alpha_stable,
    sample_generating_instance,
    sample_instance,
    stability_interval,
    subsystem_candidates,
)
from oracles import (
    closed_form_interval,
    componentwise_sum,
    echelon_bases,
    endomorphism_dimension,
    evaluate,
    evaluation_rank_at_point,
    form,
    fraction_critical_alphas,
    fraction_verdict,
    large_alpha_count,
    make_instance,
    pack,
    per_basis_candidates,
    per_basis_saturations,
    rows_rank,
    sampled_interval,
    scale,
    section_forms,
    span_saturation,
    splitting_type,
    sympy_generates,
    unpack,
)

F = PrimeField(101)
X = (1, 0)
Y = (0, 1)
ONE = (1,)
ZERO = ()


@pytest.fixture
def pair_11():
    """Type (1,1) with the nowhere-vanishing section (x, y)."""
    return make_instance(F, splitting_type(1, 1), [(X, Y)])


@pytest.fixture
def pair_10():
    """Type (1,0) with section (x, 1): a non-positive summand."""
    return make_instance(F, splitting_type(1, 0), [(X, ONE)])


class TestSystemInstance:
    def test_validates_degree_profile(self):
        # x^2 + 2xy + 3y^2 in an O(1) slot: a coefficient past its slot
        with pytest.raises(ValueError, match="past its degree"):
            make_instance(F, splitting_type(1, 1), [(X, (1, 2, 3))])

    def test_rejects_dependent_sections(self):
        with pytest.raises(ValueError):
            make_instance(F, splitting_type(1, 1), [(X, Y), (scale(X, 2, 101), scale(Y, 2, 101))])

    def test_rejects_too_many_sections(self):
        with pytest.raises(ValueError):
            sample_instance(2, 2, 5, 101, 0)

    def test_json_round_trip(self, pair_11):
        data = pair_11.to_json_dict()
        back = SystemInstance.from_json_dict(data)
        assert back == pair_11

    def test_an_equal_instance_hits_the_candidate_cache(self):
        # the hash is computed once, from the fields, so an equal instance
        # built separately finds the first one's candidates
        inst = sample_instance(3, 5, 2, 101, 0)
        again = SystemInstance.from_json_dict(inst.to_json_dict())
        assert again is not inst and again == inst and hash(again) == hash(inst)
        _rational_candidates.cache_clear()
        subsystem_candidates(inst)
        subsystem_candidates(again)
        info = _rational_candidates.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert again != sample_instance(3, 5, 2, 101, 1)

    def test_compares_by_value_and_never_raises(self):
        # the sections are an array, whose == is elementwise: instances
        # compare and hash by value instead, and a set of one instance and
        # its file-read copy has one element
        for seed in range(6):
            inst = sample_instance(3, 5, 2, 101, seed)
            other = sample_instance(3, 5, 2, 101, seed + 6)
            assert inst.sections.shape == other.sections.shape
            assert (inst == other) is False and (inst != other) is True
            assert len({inst, SystemInstance.from_json_dict(inst.to_json_dict())}) == 1
            assert inst != inst.to_json_dict()
        assert not inst.sections.flags.writeable

    @pytest.mark.parametrize("q", [2, 2**31 - 1])
    def test_combine_matches_the_row_by_row_sum(self, q):
        # a w x k basis combines in one call, for every w from 0 to k
        inst = random_instance([3, 2, 0, -1], 4, q, 7)
        rng = random.Random(q)
        sections = section_forms(inst)
        for w in range(inst.k + 1):
            basis = [
                [rng.choice([0, 1, q - 1, rng.randrange(q)]) for _ in range(inst.k)] for _ in range(w)
            ]
            got = inst.combine(np.array(basis, dtype=np.int64).reshape(w, inst.k))
            assert got.shape == (w, *inst.sections.shape[1:])
            assert unpack(got, [0] * w, inst.splitting.degrees) == tuple(
                componentwise_sum(sections, row, q) for row in basis
            )


def stacked_bases(k, w, q):
    """The bases of ``echelon_stacks`` in order, each as a tuple of rows."""
    return [tuple(map(tuple, b)) for stack in echelon_stacks(k, w, q) for b in stack.tolist()]


class TestEchelonBases:
    def test_counts_q3_k2(self):
        # 1 + (q + 1) + 1 subspaces of F_q^2
        assert len(stacked_bases(2, 0, 3)) == 1
        assert len(stacked_bases(2, 1, 3)) == 4
        assert len(stacked_bases(2, 2, 3)) == 1

    def test_distinct_spans(self):
        seen = set(stacked_bases(3, 1, 3))
        assert len(seen) == 13  # (3^3 - 1) / 2

    def test_deterministic_order(self):
        assert stacked_bases(2, 1, 3) == stacked_bases(2, 1, 3)

    @given(st.integers(0, 5), st.data(), st.sampled_from([2, 3, 5, 7, 11, 31, 101]))
    @settings(max_examples=150, deadline=None)
    def test_matches_tuple_generator(self, k, data, q):
        # same bases in the same order, in full stacks of stack_size(w * k)
        # bases but the last
        w = data.draw(st.integers(0, k))
        if q ** (w * (k - w)) > 20_000:
            w = data.draw(st.sampled_from([0, k]))
        old = list(echelon_bases(k, w, q))
        assert stacked_bases(k, w, q) == old
        size = stack_size(w * k)
        full, last = divmod(len(old), size)
        sizes = [len(stack) for stack in echelon_stacks(k, w, q)]
        assert sizes == [size] * full + ([last] if last else [])

    @pytest.mark.parametrize(
        "k,w,q,sizes",
        [
            # the second stack starts at basis 8192, inside the first pivot
            # combination's 11^4 bases: its digits are divided, not read off
            (4, 2, 11, [8192, 8034]),
            (3, 3, 5, [1]),  # w = k: one basis, no free entry
            (3, 0, 5, [1]),  # w = 0: one empty basis
        ],
    )
    def test_stack_boundaries(self, k, w, q, sizes):
        assert stacked_bases(k, w, q) == list(echelon_bases(k, w, q))
        assert [len(stack) for stack in echelon_stacks(k, w, q)] == sizes

    def test_counts_past_int64(self):
        # (6, 3) over F_(2^31 - 1), far past the cost guard: the first pivot
        # pattern has q^9 > 2^63 bases, which int64 counts refuse, not wrap
        with pytest.raises(OverflowError):
            next(echelon_stacks(6, 3, 2**31 - 1))


class TestSampling:
    def test_shapes(self):
        inst = sample_instance(2, 2, 1, 101, 3)
        assert inst.splitting == splitting_type(1, 1)
        assert len(inst.sections) == 1
        inst = sample_instance(4, 6, 2, 101, 3)
        assert inst.splitting == splitting_type(2, 2, 1, 1)
        assert len(inst.sections) == 2

    def test_deterministic(self):
        a = sample_instance(3, 5, 2, 101, 42)
        b = sample_instance(3, 5, 2, 101, 42)
        assert a == b
        c = sample_instance(3, 5, 2, 101, 43)
        assert a != c

    def test_an_accepted_draw_is_ranked_once(self, monkeypatch):
        # the instance's own independence check is the only rank of a draw
        calls = []
        real = FieldMatrix.rank

        def counted(self):
            calls.append(self.data.shape)
            return real(self)

        monkeypatch.setattr(FieldMatrix, "rank", counted)
        inst = sample_instance(4, 6, 2, 101, 3)
        assert calls == [(2, cohomology(inst.splitting, 0)[0])]

    @pytest.mark.parametrize(
        "n,d,k,message",
        [
            # h0 = 4,000,002: a draw would take seconds, and every one would be refused
            (2, 4_000_000, 1, f"h0 = 4000002 exceeds the limit {COST_GUARD_MAX_SUBSPACES}"),
            (2, 0, 3, "cannot draw 3 independent sections: h0 = 2"),
        ],
    )
    def test_an_oversized_request_is_refused_before_any_draw(self, monkeypatch, n, d, k, message):
        import cohsys.stability as stability_mod

        draws = []

        def counted(seed):
            draws.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(stability_mod, "random", mock.Mock(Random=counted))
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_instance(n, d, k, 101, 0)
        assert draws == []
        sample_instance(2, 2, 1, 101, 0)
        assert len(draws) == 1

    def test_a_dependent_draw_is_drawn_again(self):
        # over F_2 a one-coefficient section is zero in half the draws
        for seed in range(12):
            (section,) = section_forms(sample_instance(1, 0, 1, 2, seed))
            assert section == ((1,),)

    @pytest.mark.parametrize("n,k", [(3, 2), (2, 1), (5, 0), (3, 3), (2, 2)])
    def test_too_few_sections_to_generate_are_refused_before_any_draw(self, monkeypatch, n, k):
        # k < n sections never generate a rank-n bundle, and n sections that
        # generate it make it O^n, of degree 0 and not 3: no draw can succeed
        import cohsys.stability as stability_mod

        draws = []

        def counted(seed):
            draws.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(stability_mod, "random", mock.Mock(Random=counted))
        if k < n:
            message = f"k = {k} sections cannot generate a bundle of rank n = {n}"
        else:
            message = f"k = n = {n} sections generate only O\\^{n}, of degree 0, not d = 3"
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_generating_instance(n, 3, k, 101, 0)
        assert draws == []

    def test_as_many_sections_as_the_rank_generate_the_trivial_bundle(self):
        inst = sample_generating_instance(2, 0, 2, 7, 0)
        assert inst.splitting.degrees == (0, 0) and check_global_generation(inst)

    def test_generating_sampler(self):
        inst = sample_generating_instance(3, 3, 4, 7, 1)
        assert check_global_generation(inst)


class TestIsAlphaStable:
    def test_stable_inside(self, pair_11):
        rep = is_alpha_stable(pair_11, 1)
        assert rep.stable and rep.semistable and rep.witness is None

    def test_unstable_above_with_witness(self, pair_11):
        rep = is_alpha_stable(pair_11, Fraction(5, 2))
        assert not rep.stable
        w = rep.witness
        assert (w.rank, w.degree, w.sections_dim) == (1, 0, 1)
        assert w.slope(rep.alpha) == Fraction(5, 2)

    def test_nonpositive_summand_never_stable(self, pair_10):
        for a in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7)):
            assert not is_alpha_stable(pair_10, a).stable

    def test_sampled_nonpositive_types_never_stable(self):
        # balanced types with a zero or negative summand cannot carry a
        # stable pair at any weight
        for (n, d, k) in ((2, 1, 1), (3, 2, 1), (3, 0, 2), (2, -1, 1)):
            for seed in range(3):
                inst = sample_instance(n, d, k, 101, seed)
                assert inst.splitting[-1] <= 0
                for alpha in (Fraction(1, 3), 1, 3, 10):
                    assert not is_alpha_stable(inst, alpha).stable, (n, d, k, seed, alpha)

    def test_negative_alpha_rejected(self, pair_11):
        with pytest.raises(ValueError):
            is_alpha_stable(pair_11, Fraction(-1))

    def test_cost_guard(self):
        inst = sample_instance(2, 2, 4, 101, 0)
        with pytest.raises(ValueError):
            is_alpha_stable(inst, 1)
        # small fields are exempt
        small = sample_instance(2, 2, 4, 7, 0)
        is_alpha_stable(small, 1)

    @pytest.mark.parametrize(
        "n, d, k, q",
        [(2, 2, 3, 10007), (2, 4, 5, 31), (2, 2, 4, 37)],
    )
    def test_cost_guard_counts_subspaces(self, n, d, k, q):
        # 200,300,116, 1,837,991,432 and 2,031,712 subspaces: refused before enumerating
        inst = sample_instance(n, d, k, q, 0)
        with pytest.raises(ValueError, match="subspaces"):
            is_alpha_stable(inst, 1)

    def test_cost_guard_limit(self):
        assert _subspace_count(4, 31) == 1_016_836 <= COST_GUARD_MAX_SUBSPACES
        assert _subspace_count(4, 37) == 2_031_712 > COST_GUARD_MAX_SUBSPACES
        assert _subspace_count(5, 3) == 2_664
        # the count is the number of reduced echelon bases
        for k, q in ((3, 2), (4, 3), (3, 5)):
            total = sum(len(stacked_bases(k, w, q)) for w in range(k + 1))
            assert _subspace_count(k, q) == total

    def test_witness_rank_one_matches_divisor_oracle(self):
        # a reported rank-1 witness through a section subspace is the
        # saturation of that combination; its degree must match the
        # common-vanishing oracle on the combined section
        checked = 0
        for seed in range(40):
            inst = sample_instance(2, 3, 1, 101, seed)
            rep = is_alpha_stable(inst, Fraction(4))
            w = rep.witness
            if w is None or w.rank != 1 or w.sections_dim != 1:
                continue
            (combo,) = unpack(inst.combine(w.basis[:1]), [0], inst.splitting.degrees)
            assert w.degree == vanishing_divisor_degree([f for f in combo if f], 101)
            checked += 1
        assert checked > 0

    def test_semistable_implies_not_stricter(self, pair_11):
        # at the critical weight 2 the candidate (O, <(x,y)>) ties the total
        rep = is_alpha_stable(pair_11, 2)
        assert not rep.stable and rep.semistable
        assert rep.witness.slope(rep.alpha) == rep.total_slope


class TestCriticalAlphas:
    def test_nowhere_vanishing(self, pair_11):
        assert critical_alphas(pair_11) == [0, 2]

    def test_mixed_type(self, pair_10):
        # the two hand witnesses cross at 1; the full-bundle candidate (E, 0)
        # ties the total slope at 0 as it does for every instance
        assert critical_alphas(pair_10) == [0, 1]


class TestStabilityInterval:
    def test_open_interval(self, pair_11):
        iv = stability_interval(pair_11)
        assert (iv.lower, iv.upper) == (0, 2)
        assert not iv.contains(Fraction(0)) and not iv.contains(Fraction(2))

    def test_empty(self, pair_10):
        assert stability_interval(pair_10).empty

    def test_unbounded(self):
        inst = sample_generating_instance(3, 3, 4, 7, 0)
        iv = stability_interval(inst)
        assert iv.lower == 0 and iv.upper is None

    def test_contained_in_necessary_region(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randrange(2, 5)
            k = rng.randrange(1, 3)
            d = rng.randrange(1, 13)
            inst = sample_instance(n, d, k, 101, rng.randrange(10**6))
            iv = stability_interval(inst)
            assert iv.issubset(necessary_region(n, d, k))

    def test_stops_at_the_stable_cell(self):
        # of the cells (0, 1/2), (1/2, 5) and (5, inf) the second is stable,
        # so the third is never sampled
        inst = sample_instance(3, 5, 2, 101, 0)
        with mock.patch.object(stability, "is_alpha_stable", wraps=is_alpha_stable) as spy:
            iv = stability_interval(inst)
        assert (iv.lower, iv.upper) == (Fraction(1, 2), 5)
        assert spy.call_count == 2

    @staticmethod
    def assert_matches_both_references(inst):
        iv = stability_interval(inst)
        assert iv == sampled_interval(inst)
        assert iv == closed_form_interval(inst)

    @given(
        st.integers(1, 4),
        st.sampled_from([2, 3, 7, 101]),
        st.sampled_from(["balanced", "generated", "any type"]),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_both_references(self, n, q, kind, data, seed):
        # every k the cost guard admits at q; past 30,000 subspaces (the top k
        # at q = 2, 3 and 7) a rank-4 draw takes up to 12 s and a rank-1 draw
        # under one
        top = max(k for k in range(1, 10) if _subspace_count(k, q) <= COST_GUARD_MAX_SUBSPACES)
        k = data.draw(st.integers(1, top))
        if _subspace_count(k, q) > 30_000:
            n = 1
        if kind == "any type":
            degrees = data.draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
            inst = random_instance(degrees, k, q, seed)
            if inst is None:
                return
        elif kind == "balanced":
            # h0 = d + n once d >= 0
            d = data.draw(st.integers(max(0, k - n), max(0, k - n) + 2 * n + 2))
            inst = sample_instance(n, d, k, q, seed)
        else:
            assume(k >= 2)
            n = min(n, k - 1)  # k >= n + 1 generating sections
            d = data.draw(st.integers(k - n, k + n))
            inst = sample_generating_instance(n, d, k, q, seed)
        self.assert_matches_both_references(inst)

    @pytest.mark.parametrize("q", [2, 3, 7, 101])
    @pytest.mark.parametrize("n,d,k", [(2, 2, 2), (2, 3, 2), (4, 4, 2), (4, 6, 2), (4, 7, 2), (3, 3, 3)])
    def test_matches_both_references_on_closure_cells(self, n, d, k, q):
        # k = 2 on an even-rank balanced type carries closure candidates, of
        # D = 0 (t >= 1) or N = 0 (t = 0); (3, 3, 3) has gcd(n, d, k) = 3
        for seed in range(3):
            self.assert_matches_both_references(sample_instance(n, d, k, q, seed))


class TestClosedFormInterval:
    """The stable interval read from each candidate's constraint N >= alpha D."""

    @staticmethod
    def assert_matches(inst):
        iv = closed_form_interval(inst)
        assert iv == stability_interval(inst)
        ends = {
            Fraction(inst.n * c.degree - c.rank * inst.d, c.rank * inst.k - inst.n * c.sections_dim)
            for c in subsystem_candidates(inst)
            if c.rank * inst.k != inst.n * c.sections_dim
        }
        if not iv.empty:
            assert iv.lower == 0 or iv.lower in ends
            assert iv.upper is None or iv.upper in ends

    @given(
        st.integers(1, 4),
        st.integers(0, 14),
        st.integers(1, 4),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sampled_draws(self, n, d, k, q, seed):
        d = min(d, 3 * n + 2)
        if k > d + n:  # h0 = d + n
            k = d + n
        self.assert_matches(sample_instance(n, d, k, q, seed))

    @pytest.mark.parametrize("n,q", [(2, 3), (2, 7), (3, 2), (3, 3)])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_generated_pairs(self, n, q, seed):
        self.assert_matches(sample_generating_instance(n, n, n + 1, q, seed))


class TestClosureEqualityWitnesses:
    def test_4_6_2_never_stable_but_semistable_inside(self):
        for seed in range(5):
            inst = sample_instance(4, 6, 2, 101, seed)
            for a in (Fraction(3, 2), 2, Fraction(5, 2)):
                rep = is_alpha_stable(inst, a)
                assert not rep.stable
                assert rep.semistable

    def test_2_2_2_never_stable(self):
        for seed in range(5):
            inst = sample_instance(2, 2, 2, 101, seed)
            for a in (Fraction(1, 2), 1, 3):
                rep = is_alpha_stable(inst, a)
                assert not rep.stable and rep.semistable

    def test_closure_witness_has_no_basis(self):
        inst = sample_instance(4, 6, 2, 101, 0)
        rep = is_alpha_stable(inst, 2)
        assert rep.witness.basis is None
        assert rep.witness.slope(rep.alpha) == rep.total_slope


class TestKnownWrongVerdicts:
    """Two replays the checker answers wrongly; each test asserts the right answer.

    A closure candidate overstates its degree in the first, and no closure
    candidate is searched at k = 3 in the second.  Both pass once stability
    is certified from dim End (ROADMAP item 1), which must drop the markers.
    """

    @pytest.mark.xfail(strict=True, reason="a closure witness that does not exist reads it unstable")
    def test_4_7_2_is_stable_inside_its_verdict(self):
        # its best rational slope at 2 is 8/3, below the total slope 11/4
        inst = sample_instance(4, 7, 2, 2, 5)
        assert is_alpha_stable(inst, 2).stable
        assert stability_interval(inst) == AlphaInterval.open_interval(Fraction(3, 2), Fraction(5, 2))

    @pytest.mark.xfail(strict=True, reason="a rank-1 tie over F_343 goes unseen at k = 3")
    def test_3_3_3_is_not_stable(self):
        # each of three conjugate points of F_343 kills a section: a rank-1
        # subsystem (O(1), <s>) of the total slope at every weight
        inst = SystemInstance.from_json_dict(
            {
                "q": 7,
                "splitting": [1, 1, 1],
                "sections": [
                    [[4, 1], [1, 3], [4, 1]],
                    [[0, 1], [5, 3], [0, 4]],
                    [[1, 0], [4, 1], [5, 4]],
                ],
            }
        )
        assert not is_alpha_stable(inst, 1).stable
        assert stability_interval(inst).empty


class TestEndomorphismDimension:
    """dim End(E, V) from ``oracles.endomorphism_dimension``, the simplicity test of a pair."""

    def test_stable_pair_read_unstable_by_a_closure_witness_is_simple(self):
        # its rational candidates leave it stable on (3/2, 5/2), and End = F_q
        # makes it stable there over the closure too
        assert endomorphism_dimension(sample_instance(4, 7, 2, 2, 5)) == 1

    def test_direct_sum_has_two(self):
        inst = make_instance(PrimeField(5), splitting_type(1, 1), [(X, ZERO), (ZERO, Y)])
        assert endomorphism_dimension(inst) == 2

    @pytest.mark.parametrize(
        "degrees,dim",
        [((3, 1, 0), 1 + 3 + 4 + 1 + 2 + 1), ((2, 2), 4), ((1, -2), 1 + 4 + 1), ((0,), 1)],
    )
    def test_no_sections_give_all_of_h0_of_end(self, degrees, dim):
        # h0(End E) = sum over pairs of summands of max(0, a_i - a_j + 1)
        assert sum(max(0, a - b + 1) for a in degrees for b in degrees) == dim
        inst = make_instance(PrimeField(5), splitting_type(*degrees), [])
        assert endomorphism_dimension(inst) == dim

    @given(
        st.integers(1, 3),
        st.integers(0, 5),
        st.integers(1, 3),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_unchanged_by_a_change_of_section_basis(self, n, d, k, q, seed, data):
        k = min(k, d + n)  # h0 = d + n
        inst = sample_instance(n, d, k, q, seed)
        m = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                               min_size=k, max_size=k))
        assume(rows_rank(inst.field, m) == k)
        sections = [componentwise_sum(section_forms(inst), row, q) for row in m]
        again = make_instance(inst.field, inst.splitting, sections)
        assert endomorphism_dimension(again) == endomorphism_dimension(inst)


class TestGlobalGeneration:
    def test_common_zero_blocks_generation(self):
        inst = make_instance(F, splitting_type(1, 1), [(X, ZERO), (ZERO, X)])
        assert not check_global_generation(inst)

    def test_full_section_space_generates(self):
        inst = make_instance(F, splitting_type(1, 1), [(X, ZERO), (Y, ZERO), (ZERO, X), (ZERO, Y)])
        assert check_global_generation(inst)

    def test_too_few_sections(self, pair_11):
        assert not check_global_generation(pair_11)

    def test_no_sections(self):
        # the kernel of O^0 -> E has rank 0, so the image has rank 0, not n
        assert not check_global_generation(make_instance(F, splitting_type(1, 1), []))

    @given(
        st.lists(st.integers(-1, 3), min_size=1, max_size=3),
        st.integers(0, 2),
        st.sampled_from([2, 3, 5, 7]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_minor_oracle(self, degrees, extra, q, zero_at_infinity, seed):
        # k = n + 1 reads the kernel of O^k -> E from its maximal minors;
        # k = n and k = n + 2 run the count scan
        inst = random_instance(degrees, len(degrees) + extra, q, seed, zero_at_infinity)
        if inst is None:
            return
        assert check_global_generation(inst) == sympy_generates(inst)


def aut_order(degrees, q):
    """|Aut E(F_q)| for E = ⊕ O(a)^(m_a): Π |GL_(m_a)(F_q)| · q^(Σ_(a > b) m_a m_b (a - b + 1))."""
    mult = Counter(degrees)
    order = 1
    for m in mult.values():
        for i in range(m):
            order *= q**m - q**i
    for a, m_a in mult.items():
        for b, m_b in mult.items():
            if a > b:
                order *= q ** (m_a * m_b * (a - b + 1))
    return order


def large_alpha_census(n, d, q):
    """Pairs of type (n, d, n + 1) stable at large weight, weighted, as [generated, not].

    Every splitting type with summands >= -1 and every (n + 1)-plane V of
    H^0(E) is checked; a pair whose stable interval is unbounded above counts
    (q - 1) / |Aut E(F_q)|.
    """
    field = PrimeField(q)
    counts = [Fraction(0), Fraction(0)]
    for degrees in itertools.combinations_with_replacement(range(d + n, -2, -1), n):
        if sum(degrees) != d:
            continue
        splitting = splitting_type(*degrees)
        starts = list(itertools.accumulate((a + 1 for a in splitting), initial=0))
        weight = Fraction(q - 1, aut_order(degrees, q))
        for stack in echelon_stacks(starts[-1], n + 1, q):
            for basis in stack.tolist():
                sections = [
                    tuple(form(row[s : s + a + 1], q) for a, s in zip(splitting, starts))
                    for row in basis
                ]
                inst = make_instance(field, splitting, sections)
                iv = stability_interval(inst)
                if not iv.empty and iv.upper is None:
                    counts[not check_global_generation(inst)] += weight
    return counts


class TestLargeAlphaCensus:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_the_closed_form(self, q):
        # (2, 3, 3) has two terms: the generated pairs, and those whose
        # sections generate a subsheaf of colength 1
        assert large_alpha_census(2, 3, q) == large_alpha_count(2, 3, q)

    @given(
        st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_generated_pairs_are_stable_at_large_weight(self, shape, q, seed):
        # the census's ell = 0 term: a generated pair of type (n, d, n + 1)
        # with every summand >= 1, so H^0(E*) = 0, is stable past its last
        # critical weight; its spans of dimension >= 2 go through
        # SectionPairing._generic_ranks
        n, d = shape
        inst = sample_generating_instance(n, d, n + 1, q, seed)
        assert min(inst.splitting) >= 1
        interval = stability_interval(inst)
        assert not interval.empty and interval.upper is None, inst.to_json_dict()


class TestEvaluationRank:
    def test_single_section(self, pair_11):
        assert evaluation_rank_at_point(pair_11, 1, 0) == 1

    def test_common_zero_point(self):
        inst = make_instance(F, splitting_type(1, 1), [(X, ZERO), (ZERO, X)])
        assert evaluation_rank_at_point(inst, 0, 1) == 0

    def test_zero_point_rejected(self, pair_11):
        with pytest.raises(ValueError):
            evaluation_rank_at_point(pair_11, 0, 0)

    def test_full_rank_generic_k_eq_n(self):
        rng = random.Random(3)
        for seed in range(5):
            inst = sample_instance(3, 6, 3, 101, seed)
            b, c = rng.randrange(1, 101), rng.randrange(101)
            assert evaluation_rank_at_point(inst, b, c) == 3

    def test_rank_drop_total_bounded_by_degree(self):
        # summed over all rational points, evaluation rank drops of a
        # full-rank section family cannot exceed the degree
        for seed in range(3):
            inst = sample_instance(3, 4, 3, 31, seed)
            drops = 0
            for b, c in [(1, c) for c in range(31)] + [(0, 1)]:
                drops += 3 - evaluation_rank_at_point(inst, b, c)
            assert drops <= 4


class TestCandidates:
    def test_improper_pair_excluded(self, pair_11):
        cands = subsystem_candidates(pair_11)
        assert all((c.rank, c.sections_dim) != (2, 1) for c in cands)

    def test_full_rank_zero_sections_included(self, pair_11):
        cands = subsystem_candidates(pair_11)
        assert any((c.rank, c.sections_dim) == (2, 0) for c in cands)

    def test_standard_embedding_shape_on_generic_draws(self):
        # for k < n in the stable range, the span of all sections saturates
        # to a degree-0 subbundle of rank k on most draws
        hits = 0
        for seed in range(10):
            inst = sample_instance(4, 13, 2, 101, seed)
            res = saturate(inst.field, inst.splitting, inst.sections)
            if (res.rank, res.degree) == (2, 0):
                hits += 1
        assert hits >= 8


def per_subspace_candidates(inst):
    """Reference enumeration: combine and saturate each subspace on its own."""
    n, k = inst.n, inst.k
    best = {}
    for w in range(k + 1):
        for basis in echelon_bases(k, w, inst.q):
            sat = span_saturation(inst, basis)
            for r in range(max(sat.rank, 1), n + 1):
                if (r, w) == (n, k):
                    continue
                e = sat.degree + max_subbundle_degree(sat.quotient_type, r - sat.rank)
                cur = best.get((r, w))
                if cur is None or e > cur.degree:
                    best[(r, w)] = Candidate(r, e, w, basis)
    return tuple(best[key] for key in sorted(best))


def random_instance(degrees, k, q, seed, zero_at_infinity=False):
    """Independent random sections of the given type, or None if none turn up.

    With ``zero_at_infinity`` every component's x**a coefficient is 0, so
    every section vanishes at (1 : 0).
    """
    field = PrimeField(q)
    t = splitting_type(*degrees)
    rng = random.Random(seed)

    def component(a):
        coeffs = [rng.randrange(q) for _ in range(max(0, a + 1))]
        if zero_at_infinity and coeffs:
            coeffs[0] = 0
        return form(coeffs, q)

    for _ in range(20):
        secs = [tuple(component(a) for a in t) for _ in range(k)]
        try:
            return make_instance(field, t, secs)
        except ValueError:  # dependent sections, or k > h0
            continue
    return None


class TestStackedEnumeration:
    @given(
        st.lists(st.integers(-1, 4), min_size=1, max_size=4),
        st.integers(1, 3),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_subspace_loop(self, degrees, k, q, seed):
        inst = random_instance(degrees, k, q, seed)
        if inst is None:
            return
        # bypass the cache: a hit would not run the enumeration under test
        assert _rational_candidates.__wrapped__(inst) == per_subspace_candidates(inst)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
        st.integers(2, 3),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_when_every_section_vanishes_at_infinity(self, degrees, k, q, seed):
        # every section lies in E(-1): saturations of positive degree share
        # stacks with generic ones, and many subspaces share one saturation
        inst = random_instance(degrees, k, q, seed, zero_at_infinity=True)
        if inst is None:
            return
        assert all(evaluate(f, 1, 0, q) == 0 for sec in section_forms(inst) for f in sec)
        assert _rational_candidates.__wrapped__(inst) == per_subspace_candidates(inst)

    @pytest.mark.parametrize("n,d,k,q", [(4, 14, 2, 101), (3, 3, 4, 5), (2, 2, 3, 31)])
    def test_matches_on_benchmark_shapes(self, n, d, k, q):
        # (2, 2, 3) over F_31 has 993 subspaces of dimension 1, several stacks
        inst = sample_instance(n, d, k, q, 1)
        assert _rational_candidates.__wrapped__(inst) == per_subspace_candidates(inst)


def packed_probe_widths(run):
    """run()'s result and the column count of each packed twist probe it made."""
    widths = []
    real = bundles._twist_kernel_dimension

    def recorded(field, stack, cols):
        if stack.dtype == np.uint64:
            widths.append(cols)
        return real(field, stack, cols)

    with mock.patch.object(bundles, "_twist_kernel_dimension", recorded):
        return run(), widths


class TestPackedEnumeration:
    """Over F_2 the stacked enumeration ranks packed bit rows; the per-subspace
    loop ranks each saturation's int64 matrices on their own."""

    @given(
        st.lists(st.integers(-1, 40), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_subspace_loop(self, degrees, k, seed):
        # summands up to O(40): twist matrices up to twice 64 columns wide
        inst = random_instance(degrees, k, 2, seed)
        if inst is None:
            return
        assert _rational_candidates.__wrapped__(inst) == per_subspace_candidates(inst)

    @pytest.mark.parametrize(
        "degrees,k", [((40, 40), 2), ((70, 2), 2), ((30, 30, 29), 3), ((5, 5, 5, 4), 5)]
    )
    def test_saturate_stack_matches_saturate(self, degrees, k):
        # every stack of every dimension against saturate on each subspace,
        # then the candidates with their witness bases
        inst = random_instance(degrees, k, 2, sum(degrees))
        pairing = SectionPairing(inst.field, inst.splitting, inst.sections)
        for w in range(1, k):
            for stack in echelon_stacks(k, w, 2):
                got = per_basis_saturations(pairing, stack)
                want = [span_saturation(inst, b) for b in stack]
                assert got == want
        got, widths = packed_probe_widths(lambda: _rational_candidates.__wrapped__(inst))
        assert got == per_subspace_candidates(inst)
        assert widths  # the packed path ran
        if max(degrees) >= 30:  # and its rows took more than one word
            assert max(widths) > 64



def small_enumeration(data, qs, max_k, limit=1200):
    """A drawn (q, k), 2 <= k <= max_k, whose subspaces number at most limit.

    k = 1 has no subspace dimension besides 0 and k, so no stacked saturation.
    """
    q = data.draw(st.sampled_from(qs))
    top = max(k for k in range(2, max_k + 1) if _subspace_count(k, q) <= limit)
    return q, data.draw(st.integers(2, top))


class TestPerBasisWalk:
    """The walk over each stack's distinct saturations against the walk over every basis."""

    @given(
        st.lists(st.integers(-1, 4), min_size=1, max_size=4),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_basis_walk(self, degrees, data, seed):
        # witness bases included: Candidate equality compares them
        q, k = small_enumeration(data, [2, 3, 5, 101], 4)
        inst = random_instance(degrees, k, q, seed, zero_at_infinity=data.draw(st.booleans()))
        if inst is None:
            return
        assert _rational_candidates.__wrapped__(inst) == per_basis_candidates(inst)


def verdict_weights(crits):
    """Every critical weight, each cell midpoint, one past the last, and huge terms.

    Weights a 1/(10^25 + 7) step to either side of each cut test near-ties
    with huge denominators; 1/10^20 and (10^30 + 1)/3 sit near 0 and far
    past every cut.
    """
    cuts = [Fraction(0)] + [c for c in crits if c > 0]
    step = Fraction(1, 10**25 + 7)
    weights = set(crits) | {Fraction(0), cuts[-1] + 1, Fraction(1, 10**20), Fraction(10**30 + 1, 3)}
    weights |= {(a + b) / 2 for a, b in zip(cuts, cuts[1:])}
    weights |= {c + step for c in cuts} | {c - step for c in cuts if c > step}
    return sorted(weights)


class TestIntegerVerdict:
    """The verdict by integer cross-products against the ``Fraction``-slope reference:
    the same ``StabilityReport``, witness ``Candidate`` included, and the same
    critical weights."""

    @staticmethod
    def check(inst):
        crits = critical_alphas(inst)
        assert crits == fraction_critical_alphas(inst)
        for alpha in verdict_weights(crits):
            assert is_alpha_stable(inst, alpha) == fraction_verdict(inst, alpha), alpha

    @given(
        st.lists(st.integers(-1, 4), min_size=1, max_size=5),
        st.integers(1, 3),
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_fraction_slopes(self, degrees, k, q, seed):
        inst = random_instance(degrees, k, q, seed)
        if inst is None:
            return
        self.check(inst)

    @given(
        st.sampled_from([2, 4, 6]),
        st.integers(1, 3),
        st.integers(0, 5),
        st.sampled_from([3, 5, 7, 11, 101]),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 1, 2, 101, 0)  # (4, 6, 2): the closure candidate is the witness at 2
    @settings(max_examples=60, deadline=None)
    def test_matches_on_closure_cells(self, n, a, extra, q, seed):
        # k = 2 on a balanced type of even rank and degree d >= n: the
        # closure candidate is always among the candidates
        d = n * a + extra % n
        inst = sample_instance(n, d, 2, q, seed)
        assert any(cand.basis is None for cand in subsystem_candidates(inst))
        self.check(inst)


class TestKernelProbes:
    def test_k2_probe_calls_stay_at_their_recorded_count(self):
        # the kernel-scan probe calls of the k = 2 enumeration on nine cells:
        # 29 with the balanced read of _count_scan, 26 once the n = 3 whole
        # spaces read their line kernels from minors, so a change that gives
        # up part of either saving fails here
        calls = []
        real = bundles._count_scan

        def recorded(source, target, rhos, probe):
            def counted(live, j):
                calls.append(j)
                return probe(live, j)

            return real(source, target, rhos, counted)

        with mock.patch.object(bundles, "_count_scan", recorded):
            for n in (3, 4, 5):
                for d in (8, 16, 24):
                    _rational_candidates.__wrapped__(sample_instance(n, d, 2, 101, 0))
        assert len(calls) <= 26

    def test_rank_one_stack_probe_calls_stay_at_their_recorded_count(self):
        # the kernel-scan probe calls of the enumeration of three generated
        # (n, n, n + 1) pairs: 10 before a rank-one map read its summand from
        # the balanced probe's h(J), 7 with it
        calls = []
        real = bundles._count_scan

        def recorded(source, target, rhos, probe):
            def counted(live, j):
                calls.append(j)
                return probe(live, j)

            return real(source, target, rhos, counted)

        insts = [sample_generating_instance(n, n, n + 1, q, 0) for n, q in ((2, 11), (3, 3), (4, 2))]
        with mock.patch.object(bundles, "_count_scan", recorded):
            for inst in insts:
                _rational_candidates.__wrapped__(inst)
        assert len(calls) <= 7

    @pytest.mark.parametrize(
        "inst, schedule",
        [
            # the whole space (w = k = 2 = n - 1) has a line kernel, read
            # from its minors with no scan
            (lambda: sample_instance(3, 5, 2, 101, 0), [[(2, 102)]]),
            (lambda: sample_instance(4, 6, 2, 101, 0), [[(1, 102)], [(2, 1)]]),
            (lambda: sample_instance(5, 8, 2, 101, 0), [[(1, 102), (2, 2)], [(2, 1)]]),
            (lambda: sample_generating_instance(2, 2, 3, 11, 0), [[(1, 133)], [], []]),
            (lambda: sample_generating_instance(3, 3, 4, 3, 0), [[(1, 40)], [(2, 130)], [], []]),
            (
                lambda: sample_generating_instance(4, 4, 5, 2, 0),
                [[(1, 31)], [(1, 155), (2, 84)], [(3, 155)], [], []],
            ),
        ],
        ids=["3,5,2@101", "4,6,2@101", "5,8,2@101", "2,2,3@11", "3,3,4@3", "4,4,5@2"],
    )
    def test_probe_schedule_stays_as_recorded(self, inst, schedule):
        # the (twist, live count) of every probe, one list per kernel scan:
        # the guards above bound the probe count, this fixes the whole schedule
        instance = inst()
        scans = []
        real = bundles._count_scan

        def recorded(source, target, rhos, probe):
            calls = []
            scans.append(calls)

            def traced(live, j):
                calls.append((j, len(live)))
                return probe(live, j)

            return real(source, target, rhos, traced)

        with mock.patch.object(bundles, "_count_scan", recorded):
            _rational_candidates.__wrapped__(instance)
        assert scans == schedule


# budgets of one matrix per elimination, of a few matrices, and the default
BUDGETS = [1, 40, exactmath.STACK_CELLS]


def held_entries(run):
    """run()'s result and (entries held, entries of one matrix) of each stacked elimination.

    Every binding of ``stacked_rank`` and ``packed_rank`` in the package is
    wrapped, so the calls the eliminations make of each other count too.
    """
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("cohsys.")]
    with contextlib.ExitStack() as patches:
        for name in ("stacked_rank", "packed_rank"):
            real = getattr(exactmath, name)

            def recorded(*args, real=real):
                stack = args[-1]
                calls.append((stack.size, stack[0].size if len(stack) else 0))
                return real(*args)

            for mod in modules:
                if getattr(mod, name, None) is real:
                    patches.enter_context(mock.patch.object(mod, name, recorded))
        return run(), calls


class TestStackBudget:
    """Answers do not depend on the budget of entries per stacked elimination,
    and no elimination holds more than the budget or one matrix."""

    @given(
        st.lists(st.integers(-1, 5), min_size=1, max_size=4),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_match_under_every_budget(self, degrees, data, seed):
        q, k = small_enumeration(data, [2, 3, 101], 3, limit=200)
        inst = random_instance(degrees, k, q, seed, zero_at_infinity=data.draw(st.booleans()))
        if inst is None:
            return
        answers = []
        for cells in BUDGETS:
            with mock.patch.object(exactmath, "STACK_CELLS", cells):
                pairing = SectionPairing(inst.field, inst.splitting, inst.sections)
                sats = [
                    per_basis_saturations(pairing, stack)
                    for w in range(1, k)
                    for stack in echelon_stacks(k, w, q)
                ]
                # per basis, whatever stacks the budget makes
                sats = [sat for stack in sats for sat in stack]
                answers.append((_rational_candidates.__wrapped__(inst), sats))
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.parametrize("q", [2, 3])
    def test_chunks_of_one_take_the_lone_paths(self, q):
        # a budget of one entry ranks each probe's twist matrices one at a
        # time: packed over F_2, through FieldMatrix.rank otherwise; the
        # whole space (w = k = 3 < n - 1, a rank-2 kernel) is saturated
        # unpacked at every q
        inst = sample_instance(5, 8, 3, q, 1)
        lone = []
        real = bundles._twist_kernel_dimension

        def recorded(field, stack, cols):
            lone.append((len(stack), stack.dtype == np.uint64))
            return real(field, stack, cols)

        want = _rational_candidates.__wrapped__(inst)
        with mock.patch.object(exactmath, "STACK_CELLS", 1):
            with mock.patch.object(bundles, "_twist_kernel_dimension", recorded):
                with mock.patch.object(
                    FieldMatrix, "rank", autospec=True, side_effect=FieldMatrix.rank
                ) as rank:
                    assert _rational_candidates.__wrapped__(inst) == want
        assert lone and {count for count, _ in lone} == {1}
        assert {packed for _, packed in lone} == ({True, False} if q == 2 else {False})
        # each unpacked lone matrix is ranked by FieldMatrix.rank
        assert rank.call_count >= sum(not packed for _, packed in lone)

    @pytest.mark.parametrize("q", [2, 3])
    def test_a_small_budget_bounds_every_elimination(self, q):
        inst = sample_instance(3, 6, 3, q, 1)
        want = _rational_candidates.__wrapped__(inst)
        with mock.patch.object(exactmath, "STACK_CELLS", 64):
            got, calls = held_entries(lambda: _rational_candidates.__wrapped__(inst))
        assert got == want
        assert all(held <= max(64, one) for held, one in calls)
        assert any(held > one for held, one in calls)  # some eliminations stack matrices

    def test_packed_probe_memory_does_not_grow_with_the_sections(self):
        # over F_2 a probe XORs the blocks its bases pick into one stack of
        # at most the budget, one section at a time.  The same 84 planes
        # among 3 or among 12 sections make the same probes, and the 9 unused
        # sections may cost less than one budget; a (N, w, k, rows, words)
        # product of every picked block would hold 9 more stacks
        field = PrimeField(2)
        rng = random.Random(0)
        e = splitting_type(12, 12, 12)
        forms = [tuple(form([rng.randrange(2) for _ in range(13)], 2) for _ in e) for _ in range(12)]
        sections = pack(forms, [0] * 12, e.degrees)
        (planes,) = echelon_stacks(3, 2, 2)
        planes = np.tile(planes, (12, 1, 1))
        cells = 2**12
        peaks, answers = [], []
        for k in (3, 12):
            bases = np.zeros((len(planes), 2, k), dtype=np.int64)
            bases[:, :, :3] = planes
            with mock.patch.object(exactmath, "STACK_CELLS", cells):
                pairing = SectionPairing(field, e, sections[:k])
                pairing.saturate_stack(bases)  # builds every twist's pairing, which is kept
                tracemalloc.start()
                try:
                    answers.append(per_basis_saturations(pairing, bases))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert answers[0] == answers[1]
        assert peaks[1] - peaks[0] < 8 * cells  # bytes: a budget of uint64 words

    def test_default_budget_bounds_a_line_stack(self):
        # the 10303 lines of F_101^3 fit one stack of bases, whose probes
        # are ranked in chunks
        inst = sample_instance(3, 6, 3, 101, 1)
        pairing = SectionPairing(inst.field, inst.splitting, inst.sections)
        (stack,) = echelon_stacks(3, 1, 101)
        assert len(stack) == 10303
        got, calls = held_entries(lambda: per_basis_saturations(pairing, stack))
        assert got == per_basis_saturations(pairing, stack)
        cells = exactmath.STACK_CELLS
        assert all(held <= max(cells, one) for held, one in calls)
        assert any(held > cells // 2 for held, _ in calls)  # chunks fill the budget

    def test_default_budget_bounds_the_generic_ranks_of_a_plane_stack(self):
        # the 10303 planes of F_101^3 fit one stack of bases.  Three sections
        # of a rank-2 bundle have values of rank 2 at each of the three
        # points, so each point's left kernel is one row, and a plane's
        # residuals against them are 3 x 3.  Those of the whole stack would
        # fill one 92727-entry array, so they are built and ranked a budget
        # at a time.  A budget that holds the whole stack gives the same ranks
        inst = sample_instance(2, 30, 3, 101, 1)
        (bases,) = echelon_stacks(3, 2, 101)
        sizes = []
        real = bundles.stacked_rank

        def recorded(field, stack):
            sizes.append(stack.size)
            return real(field, stack)

        def ranks():
            return SectionPairing(inst.field, inst.splitting, inst.sections)._generic_ranks(bases)

        with mock.patch.object(bundles, "stacked_rank", recorded):
            got = ranks()
        kernels, _ = SectionPairing(inst.field, inst.splitting, inst.sections)._point_kernels
        assert kernels.shape == (3, 1, 3)
        span = kernels.size
        assert len(bases) == 10303 and len(sizes) > 1
        assert max(sizes) <= max(exactmath.STACK_CELLS, span)
        with mock.patch.object(exactmath, "STACK_CELLS", span * len(bases)):
            assert got == ranks()
