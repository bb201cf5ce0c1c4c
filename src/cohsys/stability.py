"""Explicit section pairs over a prime field and exact weight-stability.

An instance is a split bundle type together with k independent global
sections, held once as the (k, n, m + 1) form matrix of profile [0] * k,
splitting (see ``exactmath``).  ``is_alpha_stable`` decides
stability at an exact rational weight by enumerating destabilization
candidates; ``stability_interval`` finds the one cell between critical
weights where the instance is stable.

Why enumerating F_q-rational section subspaces suffices
-------------------------------------------------------

For a subspace W of the section space and a subbundle F of rank r containing
the saturation of W, the pair (F, W) is a subobject, and for fixed (W, r) the
largest achievable degree is the saturation degree plus the top r - rho
degrees of the saturation quotient.  So scanning all rational W and all r
covers every rational subobject at its extremal degree.

For *instability* this is complete: an unstable pair has a unique maximal
destabilizing subobject, and uniqueness makes it invariant under the Galois
action of the algebraic closure, hence defined over F_q.  What rational
search can miss are subobjects realizing slope *equality* at a non-critical
weight; those must have rank/section-count and degree proportional to the
whole pair (r*k = n*w and n*e = r*d), which forces k and n to share a factor.
For k = 2 and even n on a balanced type the extremal such subobject has
w = 1, r = n/2, and its degree comes from the minimal coefficient-pencil rank
of the two sections; that minimum over the closure is computed exactly by
``pencil_min_rank`` without leaving F_q.  The witness degree (n/2)a - delta
ignores the O(a) components, though, so it can overstate the degree: a "not
stable" verdict whose only violators are closure candidates is not
certified.  ``sample_instance(4, 7, 2, 2, 5)`` is one: a closure witness of
slope 3 reads it unstable at 2, where it is stable on (3/2, 5/2).
Semistability verdicts use rational candidates alone, which is sound: any
strict violation is witnessed by the (rational) maximal destabilizer.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bundles import (
    SaturationResult,
    SectionPairing,
    SplittingType,
    cohomology,
    generic_splitting,
    kernel_splitting,
    max_subbundle_degree,
    saturate,
)
from .classification import AlphaInterval
from .delta import pencil_min_rank
from .exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    FieldMatrix,
    PrimeField,
    check_profile,
    stack_size,
    stacked_combination,
)


@dataclass(frozen=True, eq=False)
class SystemInstance:
    """A bundle type plus k independent sections over F_q.

    ``sections`` is the (k, n, m + 1) form matrix of profile [0] * k,
    splitting, m = max(0, a_1): section l's component i, of degree a_i, in
    ``sections[l, i, :a_i + 1]``.  The slot mask of the splitting
    (``_slot_mask``) maps it to the k padded rows in the monomial basis of
    H^0(E) and back.  Instances compare and hash by value.
    """

    field: PrimeField
    splitting: SplittingType
    sections: np.ndarray

    def __post_init__(self) -> None:
        sections = np.remainder(np.asarray(self.sections, dtype=np.int64), self.q)
        _check_size(self.splitting, len(sections))
        check_profile(sections, [0] * len(sections), self.splitting.degrees)
        mask = _slot_mask(self.splitting)
        if sections.shape[2] != mask.shape[1]:
            raise ValueError(f"sections need {mask.shape[1]} slots, not {sections.shape[2]}")
        sections.flags.writeable = False
        object.__setattr__(self, "sections", sections)
        # independent in the monomial basis of H^0
        if FieldMatrix(self.field, sections[:, mask]).rank() != self.k:
            raise ValueError("sections are linearly dependent")
        # the fields are immutable, so each candidate cache lookup reuses one key and hash
        key = (self.field, self.splitting, sections.shape, sections.tobytes())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SystemInstance) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return self.splitting.rank

    @property
    def d(self) -> int:
        return self.splitting.degree

    @property
    def k(self) -> int:
        return len(self.sections)

    @property
    def q(self) -> int:
        return self.field.q

    def combine(self, basis: np.ndarray) -> np.ndarray:
        """The w sections basis @ sections of a w x k basis, as a (w, n, m + 1) form matrix."""
        return stacked_combination(basis, self.sections, self.q)

    def to_json_dict(self) -> dict:
        degrees = self.splitting.degrees
        return {
            "q": self.q,
            "splitting": list(degrees),
            "sections": [
                [comp[: max(0, a + 1)] for comp, a in zip(sec, degrees)]
                for sec in self.sections.tolist()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "SystemInstance":
        """Parse the instance-file format; malformed input raises ValueError.

        Each coefficient is reduced mod q as a Python int.  A component whose
        residues are all zero, of any length, is the zero form; any other
        must have one coefficient per slot of its summand.  The size limits
        are checked before the form matrix is built.
        """
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object")
        if set(data) != {"q", "splitting", "sections"}:
            raise ValueError(f"instance keys must be q, splitting, sections; got {sorted(data)}")
        field = PrimeField(_json_int(data["q"], "q"))
        degrees = _json_list(data["splitting"], "splitting")
        splitting = SplittingType(tuple(_json_int(a, "splitting degree") for a in degrees))
        sections = [
            [
                [_json_int(c, "coefficient") % field.q for c in _json_list(comp, "component")]
                for comp in _json_list(sec, "section")
            ]
            for sec in _json_list(data["sections"], "sections")
        ]
        for l, sec in enumerate(sections):
            if len(sec) != splitting.rank:
                raise ValueError("matrix shape does not match its degree profile")
            for i, (comp, a) in enumerate(zip(sec, splitting)):
                if any(comp) and len(comp) != a + 1:
                    raise ValueError(f"entry ({l},{i}) has degree {len(comp) - 1}, expected {a}")
        _check_size(splitting, len(sections))  # before any zero form is padded
        rows = [
            [c for comp, a in zip(sec, splitting) for c in (comp if any(comp) else [0] * (a + 1))]
            for sec in sections
        ]
        return cls(field, splitting, _from_rows(splitting, rows))


def _slot_mask(splitting: SplittingType) -> np.ndarray:
    """mask[i, u] = u <= a_i, shape (n, m + 1): the slots of a section's components.

    A section's form row masked by it is its padded row in the monomial basis
    of H^0(E), the components' coefficients in order; assigning through it
    turns padded rows back into a form matrix.
    """
    slots = max(0, *splitting.degrees) + 1
    return np.arange(slots) <= np.array(splitting.degrees)[:, None]


def _from_rows(splitting: SplittingType, rows: list[list[int]]) -> np.ndarray:
    """The (k, n, m + 1) form matrix of k padded rows of residues in H^0(E)."""
    mask = _slot_mask(splitting)
    forms = np.zeros((len(rows), *mask.shape), dtype=np.int64)
    forms[:, mask] = np.array(rows, dtype=np.int64).reshape(len(rows), np.count_nonzero(mask))
    return forms


def _check_size(splitting: SplittingType, k: int) -> None:
    """Refuse, before any section is drawn or padded, rank 0, h0 above the cost guard or k above h0."""
    if splitting.rank == 0:
        raise ValueError("the bundle must have rank >= 1")
    h0 = cohomology(splitting, 0)[0]
    if h0 > COST_GUARD_MAX_SUBSPACES:
        raise ValueError(f"h0 = {h0} exceeds the limit {COST_GUARD_MAX_SUBSPACES}")
    if k > h0:
        raise ValueError(f"cannot draw {k} independent sections: h0 = {h0}")


def _json_list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def _json_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Candidate:
    """Extremal subobject data: max degree e for the pair (rank, dim W).

    ``basis`` gives reduced-echelon coordinates of W inside V; it is None for
    closure candidates, whose section combination may live only over an
    extension of the base field.
    """

    rank: int
    degree: int
    sections_dim: int
    basis: tuple[tuple[int, ...], ...] | None

    def slope(self, alpha: Fraction) -> Fraction:
        """The weighted slope (degree + alpha * dim W) / rank."""
        p, s = alpha.numerator, alpha.denominator
        return Fraction(self.degree * s + self.sections_dim * p, self.rank * s)


@dataclass(frozen=True)
class StabilityReport:
    """A verdict at one weight; the witness is a steepest violating candidate."""

    alpha: Fraction
    stable: bool
    semistable: bool
    total_slope: Fraction
    witness: Candidate | None

    def to_json_dict(self) -> dict:
        w = self.witness
        witness = None if w is None else {
            "rank": w.rank,
            "degree": w.degree,
            "sections_dim": w.sections_dim,
            "alpha_slope": str(w.slope(self.alpha)),
            "subspace_basis": None if w.basis is None else [list(row) for row in w.basis],
        }
        return {
            "alpha": str(self.alpha),
            "stable": self.stable,
            "semistable": self.semistable,
            "total_slope": str(self.total_slope),
            "witness": witness,
        }


def echelon_stacks(k: int, w: int, q: int) -> Iterator[np.ndarray]:
    """Reduced row-echelon representatives of all w-subspaces of F_q^k, in stacks.

    Ordered by pivot-column combination, then lexicographically in the free
    entries: the t-th basis of a combination holds the base-q digits of t in
    its free entries, most significant first.  Yields arrays of shape (m, w, k),
    m <= stack_size(w * k), all full but the last, so a stack can span
    combinations.  A row's free entries are runs of columns between pivots,
    each one slice of one table of digits in f_max = w(k - w) places, as a
    count below q^f has f_max - f leading zeros.  Counts are int64, and a place
    value past 2^63 raises OverflowError: callers stay far below it.
    """
    size = stack_size(w * k)
    f_max = w * (k - w)  # the free entries of the first combination, the most
    places = np.array([q**e for e in reversed(range(f_max))], dtype=np.int64)
    table = np.arange(min(size, q**f_max), dtype=np.int64)[:, None] // places % q
    # (pivots, count q^f, runs as (row, first column, stop column, first digit's table column))
    combos = []
    for pivots in itertools.combinations(range(k), w):
        runs, col = [], f_max - sum(k - w + row - p for row, p in enumerate(pivots))
        combos.append((pivots, q ** (f_max - col), runs))
        for row in range(w):
            for lo, hi in zip(pivots[row:], pivots[row + 1 :] + (k,)):
                if hi > lo + 1:
                    runs.append((row, lo + 1, hi, col))
                    col += hi - lo - 1
    left = sum(count for _, count, _ in combos)
    held = 0
    for pivots, count, runs in combos:
        start = 0
        while start < count:
            if held == 0:
                block = np.zeros((min(size, left), w, k), dtype=np.int64)
            stop = min(count, start + len(block) - held)
            part = block[held : held + stop - start]
            digits = table[start:stop]
            if len(digits) < stop - start:  # counts past the table's, in a stack entered part-way
                digits = np.arange(start, stop, dtype=np.int64)[:, None] // places % q
            for row, pivot in enumerate(pivots):
                part[:, row, pivot] = 1
            for row, lo, hi, col in runs:
                part[:, row, lo:hi] = digits[:, col : col + hi - lo]
            held += stop - start
            left -= stop - start
            start = stop
            if held == len(block):
                yield block
                held = 0


def _subspace_count(k: int, q: int) -> int:
    """Number of subspaces of F_q^k: the sum over w of the Gaussian binomials [k w]_q."""
    total, binomial = 0, 1
    for w in range(k + 1):
        total += binomial
        # [k, w+1]_q = [k, w]_q (q^(k-w) - 1) / (q^(w+1) - 1), an exact division
        binomial = binomial * (q ** (k - w) - 1) // (q ** (w + 1) - 1)
    return total


def _saturations(
    inst: SystemInstance, pairing: SectionPairing, w: int
) -> Iterator[tuple[np.ndarray, SaturationResult]]:
    """(basis, saturation) for each distinct saturation of a stack of w-subspaces.

    Each stack's distinct saturations come in order of first appearance, each
    with the first basis of the stack that has it, and the stacks come in
    enumeration order.  A saturation may come again from a later stack.
    """
    stacks = echelon_stacks(inst.k, w, inst.q)
    if w in (0, inst.k):  # one subspace: its sections are combined and saturated alone
        ((basis,),) = stacks
        yield basis, saturate(inst.field, inst.splitting, inst.combine(basis))
        return
    for stack in stacks:
        distinct, index = pairing.saturate_stack(stack)
        # index numbers the distinct saturations in order of first appearance
        first = np.unique(index, return_index=True)[1]
        yield from zip(stack[first], distinct)


@functools.lru_cache(maxsize=4096)
def _rational_candidates(inst: SystemInstance) -> tuple[Candidate, ...]:
    n, k = inst.n, inst.k
    pairing = SectionPairing(inst.field, inst.splitting, inst.sections)
    best: dict[tuple[int, int], Candidate] = {}
    for w in range(k + 1):
        for basis, sat in _saturations(inst, pairing, w):
            for r in range(max(sat.rank, 1), n + 1):
                if (r, w) == (n, k):
                    continue
                e = sat.degree + max_subbundle_degree(sat.quotient_type, r - sat.rank)
                key = (r, w)
                cur = best.get(key)
                # a saturation met again in a later stack gives equal degrees,
                # so the strict > keeps the first basis that reached them
                if cur is None or e > cur.degree:
                    best[key] = Candidate(r, e, w, tuple(map(tuple, basis.tolist())))
    return tuple(best[key] for key in sorted(best))


@functools.lru_cache(maxsize=4096)
def _closure_candidates(inst: SystemInstance) -> tuple[Candidate, ...]:
    """Equality witnesses over the closure (k = 2, even n, balanced type).

    On a balanced type O(a)^(n-t) + O(a-1)^t the extremal rank-n/2 subobject
    through one section combination has degree (n/2)a - delta with delta the
    minimal pencil rank of the two sections' degree-(a-1) components (of the
    full components when t = 0).  The minimizing point (b : c) may be
    irrational, so this is computed by the exact closure oracle.  The degree
    ignores the O(a) components, so it is an upper bound, not exact: a
    witness here need not exist (the (4, 7, 2) replay in the module
    docstring).
    """
    n, k = inst.n, inst.k
    if k != 2 or n % 2 != 0:
        return ()
    if inst.splitting != generic_splitting(n, inst.d):
        return ()
    a = inst.splitting[0]
    if a < 1:
        return ()
    t = n * a - inst.d
    if t >= 1:
        # the O(a - 1) components, of degree a - 1: their slot a is zero
        delta = pencil_min_rank(inst.sections[:, n - t :, :a], inst.field)
        r = n // 2
        return (Candidate(r, r * a - delta, 1, None),)
    delta = pencil_min_rank(inst.sections, inst.field)
    # the combination lands in a rank-delta balanced factor of degree a*delta
    return (Candidate(delta, a * delta, 1, None),)


def subsystem_candidates(inst: SystemInstance) -> tuple[Candidate, ...]:
    """All extremal destabilization candidates, rational plus closure ones."""
    count = _subspace_count(inst.k, inst.q)
    if count > COST_GUARD_MAX_SUBSPACES:
        raise ValueError(
            f"refusing to enumerate {count} subspaces for k = {inst.k} over F_{inst.q} "
            f"(limit {COST_GUARD_MAX_SUBSPACES})"
        )
    return _rational_candidates(inst) + _closure_candidates(inst)


def total_slope(inst: SystemInstance, alpha: Fraction) -> Fraction:
    """The weighted slope (d + alpha * k) / n of the whole pair."""
    p, s = alpha.numerator, alpha.denominator
    return Fraction(inst.d * s + inst.k * p, inst.n * s)


def _constraints(inst: SystemInstance) -> list[tuple[int, int, Candidate]]:
    """(N, D, candidate) for each candidate, with N = n e - r d and D = r k - n w.

    A candidate of rank r, degree e and section dimension w violates at the
    weight alpha when (e + alpha w) / r >= (d + alpha k) / n, which clears to
    the linear constraint N >= alpha D.
    """
    n, d, k = inst.n, inst.d, inst.k
    return [
        (n * cand.degree - cand.rank * d, cand.rank * k - n * cand.sections_dim, cand)
        for cand in subsystem_candidates(inst)
    ]


def is_alpha_stable(inst: SystemInstance, alpha: Fraction | int) -> StabilityReport:
    """Exact stability verdict at one weight.

    Stability fails when any candidate slope reaches the total slope;
    semistability fails only on a strictly larger *rational* candidate (see
    the module docstring for why that is sound).  At alpha = p / s a
    candidate reaches the total slope exactly when N s >= p D, and exceeds it
    when N s > p D (``_constraints``), so each is decided by integer
    cross-products.  Fractions are built only for the outputs: the slopes of
    the violators, which choose and report the witness, and the total slope.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("weight must be >= 0")
    p, s = alpha.numerator, alpha.denominator
    violators = []
    semistable = True
    for num, den, cand in _constraints(inst):
        excess = num * s - p * den
        if excess >= 0:
            rational = cand.basis is not None
            violators.append((cand.slope(alpha), rational, cand))
            if excess and rational:
                semistable = False
    # the first steepest violator, a rational one on a tie
    witness = max(violators, key=lambda v: v[:2])[2] if violators else None
    return StabilityReport(alpha, not violators, semistable, total_slope(inst, alpha), witness)


def critical_alphas(inst: SystemInstance) -> list[Fraction]:
    """Weights where some rational candidate slope crosses the total slope.

    A rational candidate's constraint N >= alpha D is tight at alpha = N / D,
    a weight only when D != 0 and N / D >= 0 (N D >= 0), so the fraction is
    built for those alone.
    """
    crits: set[Fraction] = set()
    for num, den, cand in _constraints(inst):
        if cand.basis is None:
            continue  # a closure candidate has D = 0, or N = 0: it cuts no cell above 0
        if den and num * den >= 0:
            crits.add(Fraction(num, den))
    return sorted(crits)


def stability_interval(inst: SystemInstance) -> AlphaInterval:
    """The set of weights where the instance is stable: one cell between critical weights.

    A candidate violates at alpha exactly when N >= alpha D (``_constraints``),
    so the stable set is the open interval (max(0, L), U), with L the largest
    N / D over D > 0 and U the smallest N / D over D < 0; it is empty when
    some D = 0 has N >= 0.  Every rational N / D >= 0 is a critical weight,
    and a closure candidate has D = 0 or N = 0, so no critical weight lies
    inside the interval: it is the first cell, cut by 0 and the positive
    critical weights, whose sample is stable.
    """
    boundaries = [Fraction(0)] + [c for c in critical_alphas(inst) if c > 0]
    for lower, upper in zip(boundaries, boundaries[1:] + [None]):
        cell = AlphaInterval.open_interval(lower, upper)
        if is_alpha_stable(inst, cell.midpoint()).stable:
            return cell
    return AlphaInterval.EMPTY


def check_global_generation(inst: SystemInstance) -> bool:
    """Whether the sections generate the bundle at every point of the closure.

    The evaluation map O^k -> E is onto iff its image subsheaf has full rank
    and full degree; the image degree is minus the degree of the kernel of
    the section matrix viewed as a sheaf map.  For k = n + 1 this is the
    maximal-minor criterion: ``kernel_splitting`` reads the line kernel
    O(-d + deg gcd) from the n x n minors, so the sections generate exactly
    when some minor is nonzero and the minors share no zero on P^1.
    """
    source = SplittingType((0,) * inst.k)
    # entry (i, l) of O^k -> E is component i of section l
    kern = kernel_splitting(inst.field, source, inst.splitting, inst.sections.transpose(1, 0, 2))
    image_rank = inst.k - kern.rank
    image_degree = -kern.degree
    return image_rank == inst.n and image_degree == inst.d


def mix_seed(*parts: int) -> int:
    acc = 0
    for p in parts:
        acc = (acc * 1000003 + p) % (2**63)
    return acc


def sample_instance(n: int, d: int, k: int, q: int, seed: int) -> SystemInstance:
    """Deterministic random instance of balanced type with independent sections."""
    field = PrimeField(q)
    splitting = generic_splitting(n, d)
    _check_size(splitting, k)
    h0 = cohomology(splitting, 0)[0]
    for attempt in range(1000):
        rng = random.Random(mix_seed(n, d, k, q, seed, attempt))
        # each section's padded row: its components' coefficients in order
        rows = [[rng.randrange(q) for _ in range(h0)] for _ in range(k)]
        try:
            return SystemInstance(field, splitting, _from_rows(splitting, rows))
        except ValueError:
            # the size is checked above and the draw has its degree profile by
            # construction, so the instance refuses a dependent draw only
            continue
    raise RuntimeError("failed to draw independent sections in 1000 attempts")


_GENERATING_TRIES = 500  # draws before sample_generating_instance gives up


def sample_generating_instance(n: int, d: int, k: int, q: int, seed: int) -> SystemInstance:
    """Like ``sample_instance`` but conditioned on globally generating sections."""
    if k < n:  # no draw of fewer than n sections generates a rank-n bundle
        raise ValueError(f"k = {k} sections cannot generate a bundle of rank n = {n}")
    if k == n and d != 0:  # a surjection O^n -> E of equal ranks is an isomorphism
        raise ValueError(f"k = n = {n} sections generate only O^{n}, of degree 0, not d = {d}")
    for offset in range(_GENERATING_TRIES):
        inst = sample_instance(n, d, k, q, mix_seed(seed, offset))
        if check_global_generation(inst):
            return inst
    raise RuntimeError(
        f"no globally generating draw for ({n},{d},{k}) over F_{q} in {_GENERATING_TRIES} tries"
    )
