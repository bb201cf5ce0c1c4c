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

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    BinaryForm,
    FieldMatrix,
    PrimeField,
    check_profile,
    form_determinant,
    stack_size,
    stacked_combination,
    stacked_rank,
    vanishing_divisor_degree,
)


@dataclass(frozen=True)
class DeltaInput:
    """t pairs of degree-(a-1) forms over a prime field (zero forms allowed)."""

    a: int
    t: int
    g: tuple[BinaryForm, ...]
    g_prime: tuple[BinaryForm, ...]

    def __post_init__(self) -> None:
        if self.a < 1 or self.t < 1:
            raise ValueError("need a >= 1 and t >= 1")
        check_profile([self.g, self.g_prime], [0, 0], [self.a - 1] * self.t)

    @property
    def field(self) -> PrimeField:
        return self.g[0].field


def delta_formula(a: int, t: int) -> int:
    """Generic value: t if a >= t+1, t-1 if a = t, a if 1 <= a < t."""
    if a < 1 or t < 1:
        raise ValueError("need a >= 1 and t >= 1")
    if a >= t + 1:
        return t
    if a == t:
        return t - 1
    return a


def _pencil_coefficient_matrices(
    first: Sequence[BinaryForm], second: Sequence[BinaryForm], slot_degree: int
) -> np.ndarray:
    """The two families' coefficient matrices A and B, stacked: shape (2, slot_degree + 1, t)."""
    pencil = np.zeros((2, slot_degree + 1, len(first)), dtype=np.int64)
    for m, family in enumerate((first, second)):
        for c, f in enumerate(family):
            if not f.is_zero:
                pencil[m, :, c] = f.coeffs
    return pencil


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
    pencil = _pencil_coefficient_matrices(inp.g, inp.g_prime, inp.a - 1)
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


def pencil_min_rank(
    first: Sequence[BinaryForm], second: Sequence[BinaryForm], slot_degree: int, field: PrimeField
) -> int:
    """Minimal rank of b*A + c*B over all (b : c) in the closure of P^1.

    A and B are the coefficient matrices of the two form families (columns =
    family members, rows = the slot_degree + 1 coefficient slots).  Rank drops
    below s at some point iff every s x s minor, a degree-s binary form in
    (b, c), vanishes there; minors sharing a projective zero is a gcd test.

    The least rank at (1 : 0), (0 : 1) and (1 : 1) bounds the minimum, and no
    size up to that bound has only zero minors.  A square pencil of full rank
    there has one full-size minor, a nonzero form of positive degree, which
    vanishes somewhere: the bound drops by one with no determinant computed.
    The minors of the bound's size are tested first; with no common zero the
    bound is the minimum, which for a generic pencil takes two minors.
    Otherwise the smaller sizes are swept upward.  Each size's minors are
    computed only until their gcd is settled.
    """
    if len(first) != len(second):
        raise ValueError("families must have equal length")
    A, B = _pencil_coefficient_matrices(first, second, slot_degree)
    nrows, ncols = A.shape
    bound = min(FieldMatrix(field, m).rank() for m in (A, B, A + B))
    if bound == nrows == ncols:
        bound -= 1
    if bound == 0:
        return 0
    entries = [
        [BinaryForm(field, (A[r, c], B[r, c])) for c in range(ncols)]
        for r in range(nrows)
    ]

    def common_zero(size: int) -> bool:
        minors = (
            form_determinant(
                [[entries[r][c] for c in csel] for r in rsel], field, [0] * size, [1] * size
            )
            for rsel in itertools.combinations(range(nrows), size)
            for csel in itertools.combinations(range(ncols), size)
        )
        return vanishing_divisor_degree(minors) >= 1

    if not common_zero(bound):
        return bound
    for size in range(1, bound):
        if common_zero(size):
            return size - 1
    return bound - 1


def delta_closure(inp: DeltaInput) -> int:
    """Exact minimal pencil rank over the algebraic closure."""
    return pencil_min_rank(inp.g, inp.g_prime, inp.a - 1, inp.field)


def sample_delta_input(a: int, t: int, q: int, seed: int) -> DeltaInput:
    """Uniform random coefficient draw, deterministic in the seed."""
    field = PrimeField(q)
    rng = random.Random(((seed * 31 + a) * 31 + t) * 31 + q)
    def draw() -> BinaryForm:
        return BinaryForm(field, tuple(rng.randrange(q) for _ in range(a)))
    return DeltaInput(
        a, t, tuple(draw() for _ in range(t)), tuple(draw() for _ in range(t))
    )


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
