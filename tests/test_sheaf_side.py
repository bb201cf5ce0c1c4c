"""The checker against an oracle that starts from the subsheaves, over F_q and its extensions.

``oracles.sheaf_side_verdict`` enumerates the saturated line subsheaves of a
rank-2 bundle directly, over GF(q^m), instead of saturating section
subspaces.  A destabilizer it finds over any extension must make the checker
say "not stable"; over F_q itself it sees exactly the rational subobjects, so
it must agree on semistability and find every rational witness.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohsys.stability import critical_alphas, is_alpha_stable, sample_instance
from oracles import ExtensionField, sheaf_side_verdict

# maps O(b) -> E one oracle call may enumerate, so each draw takes well under a second
MAP_BUDGET = 4000
WEIGHTS = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]


def map_count(inst, alpha, size):
    """The maps, up to scalar, that ``sheaf_side_verdict`` enumerates over a field of this size."""
    (a1, a2), k = inst.splitting.degrees, inst.k
    mu = Fraction(inst.d + alpha * k, 2)
    return sum(
        size ** (a1 - b + max(0, a2 - b + 1))
        for b in range(a1 + 1)
        if b + alpha * min(k, b + 1) >= mu
    )


def extension_degrees(inst, alpha):
    """Each m >= 2 with q^m <= 25 whose enumeration fits ``MAP_BUDGET``."""
    m = 2
    while inst.q**m <= 25 and map_count(inst, alpha, inst.q**m) <= MAP_BUDGET:
        yield m
        m += 1


class TestExtensionField:
    @pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_tables_form_a_field_over_f_q(self, q, m):
        field = ExtensionField(q, m)
        elements = range(field.size)
        for a, b, c in itertools.product(elements, repeat=3):
            assert field.mul[field.mul[a][b]][c] == field.mul[a][field.mul[b][c]]
            assert field.mul[a][field.add[b][c]] == field.add[field.mul[a][b]][field.mul[a][c]]
        for a in elements:
            assert field.add[a][field.neg[a]] == 0
            assert a == 0 or field.mul[a][field.inv[a]] == 1
        # the residues below q are F_q, with its own arithmetic
        for a, b in itertools.product(range(q), repeat=2):
            assert (field.add[a][b], field.mul[a][b]) == ((a + b) % q, a * b % q)

    def test_too_large_is_refused(self):
        with pytest.raises(ValueError):
            ExtensionField(3, 3)


class TestSheafSideOracle:
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_checker_matches_the_subsheaves(self, q, k, d, seed):
        assume(k <= d + 2)
        inst = sample_instance(2, d, k, q, seed)
        for alpha in sorted(set(WEIGHTS + [Fraction(d + 1)] + critical_alphas(inst))):
            report = is_alpha_stable(inst, alpha)
            stable, semistable, steepest = sheaf_side_verdict(inst, alpha, 1)
            # a strict violator over the closure has a rational one
            assert report.semistable == semistable, alpha
            if report.witness is None or report.witness.basis is not None:
                # the steepest rational violator, or none at all
                assert steepest == (report.witness and report.witness.slope(alpha)), alpha
            for m in extension_degrees(inst, alpha):
                if not sheaf_side_verdict(inst, alpha, m)[0]:
                    assert not report.stable, (alpha, m)

    def test_a_destabilizer_only_over_f_25(self):
        # dim End = 2: a line subsheaf through one section reaches mu = 3/2 at
        # alpha = 1/2 over F_25 but over no smaller field; the checker finds
        # it as a closure witness, and nothing exceeds mu
        inst = sample_instance(2, 2, 2, 5, 2)
        alpha = Fraction(1, 2)
        assert sheaf_side_verdict(inst, alpha, 1) == (True, True, None)
        assert sheaf_side_verdict(inst, alpha, 2) == (False, True, Fraction(3, 2))
        report = is_alpha_stable(inst, alpha)
        assert (report.stable, report.semistable) == (False, True)
        assert report.witness.basis is None
        assert report.witness.slope(alpha) == Fraction(3, 2)
