"""The pencil-rank invariant of two-section pairs and its oracles.

Given t pairs of forms (g_i, g'_i) of degree a-1, the invariant is the
minimal rank of the coefficient pencil b*G + c*G' over all points (b : c) of
the projective line.  The closed formula gives its value for a general pair;
two oracles recompute it directly:

* ``delta_bruteforce`` scans the q + 1 rational points, ranking their
  specialized matrices a stack at a time.  It can only see rational rank
  drops, so it upper-bounds the true minimum (strictly, when the minimizing
  point lives in a quadratic extension).
* ``delta_closure`` is exact over the algebraic closure: rank <= r at some
  point iff all (r+1)-minors (binary forms in (b, c)) share a projective
  zero, which is a gcd computation.  The least rank at (1 : 0), (0 : 1) and
  (1 : 1) bounds the minimum, and the minors of that size are tested first.

``check_pencil_cell`` runs both oracles on a cell's draws and judges the
formula, for ``cohsys delta-check`` and ``scripts/delta_survey.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    FieldMatrix,
    PrimeField,
    check_profile,
    minor_divisor_degree,
    stack_size,
    stacked_combination,
    stacked_rank,
)


@dataclass(frozen=True, eq=False)
class DeltaInput:
    """t pairs of degree-(a-1) forms over a prime field (zero forms allowed).

    forms[0] holds the forms g_i and forms[1] the forms g'_i: a (2, t, a)
    array of residues, the form matrix of profile [0, 0], [a - 1] * t.
    """

    field: PrimeField
    a: int
    t: int
    forms: np.ndarray

    def __post_init__(self) -> None:
        if self.a < 1 or self.t < 1:
            raise ValueError("need a >= 1 and t >= 1")
        if np.shape(self.forms) != (2, self.t, self.a):
            raise ValueError(f"the forms must have shape (2, t, a) = (2, {self.t}, {self.a})")
        forms = np.remainder(np.asarray(self.forms, dtype=np.int64), self.field.q)
        forms.flags.writeable = False
        object.__setattr__(self, "forms", forms)


def delta_formula(a: int, t: int) -> int:
    """Generic value: t if a >= t+1, t-1 if a = t, a if 1 <= a < t."""
    if a < 1 or t < 1:
        raise ValueError("need a >= 1 and t >= 1")
    if a >= t + 1:
        return t
    if a == t:
        return t - 1
    return a


def delta_bruteforce(inp: DeltaInput) -> int:
    """Least rank of the specialized pencil b*A + c*B over the q + 1 rational points.

    The points are (1 : c) for c in F_q, then (0 : 1).  Their a x t matrices
    are built and ranked ``stack_size(a * t)`` points at a time, which bounds
    the memory for large q by ``STACK_CELLS`` entries or one matrix, and the
    scan stops at the first stack that holds a point of rank 0.  The points
    are the one-dimensional subspaces of F_q^2, so more than
    ``COST_GUARD_MAX_SUBSPACES`` of them are refused.
    """
    q = inp.field.q
    if q + 1 > COST_GUARD_MAX_SUBSPACES:
        raise ValueError(
            f"refusing to scan {q + 1} rational points over F_{q} "
            f"(limit {COST_GUARD_MAX_SUBSPACES})"
        )
    pencil = inp.forms.transpose(0, 2, 1)  # A and B, each a x t
    least = inp.t
    size = stack_size(pencil[0].size)
    for start in range(0, q + 1, size):
        index = np.arange(start, min(start + size, q + 1), dtype=np.int64)
        finite = index < q
        points = np.stack([finite.astype(np.int64), np.where(finite, index, 1)], axis=1)
        ranks = stacked_rank(inp.field, stacked_combination(points, pencil, q))
        least = min(least, int(ranks.min()))
        if least == 0:
            break
    return least


def pencil_min_rank(families: np.ndarray, field: PrimeField) -> int:
    """Minimal rank of b*A + c*B over all (b : c) in the closure of P^1.

    families is a (2, t, s + 1) array of residues: two families of t forms
    of degree s.  A and B are their coefficient matrices (columns = family
    members, rows = the s + 1 coefficient slots), and b*A + c*B is the
    (s + 1, t, 2) matrix of degree-1 forms in (b, c), whose profile is
    checked once: its minors are slices of it.  Rank drops
    below s at some point iff every s x s minor, a degree-s binary form in
    (b, c), vanishes there; minors sharing a projective zero is a gcd test.

    The least rank at (1 : 0), (0 : 1) and (1 : 1) bounds the minimum, and no
    size up to that bound has only zero minors.  A square pencil of full rank
    there has one full-size minor, a nonzero form of positive degree, which
    vanishes somewhere: the bound drops by one with no determinant computed.
    The minors of the bound's size are tested first; with no common zero the
    bound is the minimum, which for a generic pencil takes two minors.
    Otherwise the smaller sizes are swept upward.  Each size is one
    ``minor_divisor_degree`` call, which computes its minors only until their
    gcd is settled.
    """
    A, B = np.transpose(families, (0, 2, 1))
    nrows, ncols = A.shape
    bound = min(FieldMatrix(field, m).rank() for m in (A, B, A + B))
    if bound == nrows == ncols:
        bound -= 1
    if bound == 0:
        return 0
    pencil = np.transpose(families, (2, 1, 0))
    check_profile(pencil, [0] * nrows, [1] * ncols)

    def common_zero(size: int) -> bool:
        return minor_divisor_degree(pencil, field, [0] * nrows, [1] * ncols, size) >= 1

    if not common_zero(bound):
        return bound
    for size in range(1, bound):
        if common_zero(size):
            return size - 1
    return bound - 1


def delta_closure(inp: DeltaInput) -> int:
    """Exact minimal pencil rank over the algebraic closure."""
    return pencil_min_rank(inp.forms, inp.field)


def sample_delta_input(a: int, t: int, q: int, seed: int) -> DeltaInput:
    """Uniform random coefficient draw, deterministic in the seed.

    The t forms g_i are drawn first, then the t forms g'_i, each coefficient
    a residue below q.
    """
    field = PrimeField(q)
    rng = random.Random(((seed * 31 + a) * 31 + t) * 31 + q)
    forms = [[[rng.randrange(q) for _ in range(a)] for _ in range(t)] for _ in range(2)]
    return DeltaInput(field, a, t, np.array(forms, dtype=np.int64))


class ScanBelowClosure(RuntimeError):
    """A rational scan read below the closure minimum, which ranges over more points."""


def check_pencil_cell(
    a: int, t: int, q: int, seeds: Iterable[int]
) -> tuple[list[int], list[int], bool]:
    """Both oracles on the draw at each seed, and whether the formula holds there.

    Returns the closure values, the rational-scan values and the verdict:
    the formula is attained by some draw and exceeded by none.  The first
    draw whose scan reads below its closure minimum, an oracle bug, raises
    ``ScanBelowClosure``; the scan's cost guard raises ``ValueError``.
    """
    closure, rational = [], []
    for trial, seed in enumerate(seeds):
        inp = sample_delta_input(a, t, q, seed)
        closure.append(delta_closure(inp))
        rational.append(delta_bruteforce(inp))
        if rational[-1] < closure[-1]:
            raise ScanBelowClosure(
                f"trial {trial}: the rational scan's rank {rational[-1]} "
                f"is below the closure minimum {closure[-1]}"
            )
    return closure, rational, max(closure) == delta_formula(a, t)
