"""Explicit section pairs over a prime field and exact weight-stability.

An instance is a split bundle type together with k independent global
sections given componentwise as binary forms.  ``is_alpha_stable`` decides
stability at an exact rational weight by enumerating destabilization
candidates; ``stability_interval`` assembles the full stable range.

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
``pencil_min_rank``, so those witnesses are restored without leaving F_q.
Semistability verdicts use rational candidates alone, which is sound: any
strict violation is witnessed by the (rational) maximal destabilizer.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .bundles import (
    SaturationResult,
    SectionPairing,
    SplittingType,
    _padded,
    cohomology,
    combine_sections,
    generic_splitting,
    kernel_splitting,
    max_subbundle_degree,
    saturate,
)
from .classification import AlphaInterval
from .delta import pencil_min_rank
from .exactmath import (
    COST_GUARD_MAX_SUBSPACES,
    BinaryForm,
    FieldMatrix,
    PrimeField,
    check_profile,
    stack_size,
)


@dataclass(frozen=True)
class SystemInstance:
    """A bundle type plus k independent sections over F_q."""

    field: PrimeField
    splitting: SplittingType
    sections: tuple[tuple[BinaryForm, ...], ...]

    def __post_init__(self) -> None:
        if self.splitting.rank == 0:
            raise ValueError("the bundle must have rank >= 1")
        check_profile(self.sections, [0] * len(self.sections), self.splitting.degrees)
        k = len(self.sections)
        h0 = cohomology(self.splitting, 0)[0]
        if h0 > COST_GUARD_MAX_SUBSPACES:
            # refused before any section is padded to h0 coefficients
            raise ValueError(f"h0 = {h0} exceeds the limit {COST_GUARD_MAX_SUBSPACES}")
        if k > h0:
            raise ValueError(f"{k} sections exceed h0 = {h0}")
        # independent in the monomial basis of H^0
        rows = [list(itertools.chain(*_padded(self.splitting, s))) for s in self.sections]
        if FieldMatrix.from_rows(self.field, rows).rank() != k:
            raise ValueError("sections are linearly dependent")
        # the fields are immutable, so each candidate cache lookup reuses one hash
        object.__setattr__(self, "_hash", hash((self.field, self.splitting, self.sections)))

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

    def combine(self, coeffs: Sequence[int]) -> tuple[BinaryForm, ...]:
        """The section sum(coeffs[j] * sections[j]) componentwise."""
        (section,) = combine_sections(self.field, self.splitting, self.sections, [coeffs])
        return section

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "splitting": list(self.splitting.degrees),
            "sections": [_padded(self.splitting, s) for s in self.sections],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "SystemInstance":
        """Parse the instance-file format; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object")
        if set(data) != {"q", "splitting", "sections"}:
            raise ValueError(f"instance keys must be q, splitting, sections; got {sorted(data)}")
        field = PrimeField(_json_int(data["q"], "q"))
        degrees = _json_list(data["splitting"], "splitting")
        splitting = SplittingType(tuple(_json_int(a, "splitting degree") for a in degrees))
        sections = []
        for sec in _json_list(data["sections"], "sections"):
            comps = []
            for comp in _json_list(sec, "section"):
                coeffs = _json_list(comp, "component")
                comps.append(BinaryForm(field, tuple(_json_int(c, "coefficient") for c in coeffs)))
            sections.append(tuple(comps))
        return cls(field, splitting, tuple(sections))


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
    entries, so enumeration order is deterministic: the t-th basis of a pivot
    combination holds the base-q digits of t in its free entries, most
    significant first.  Yields arrays of shape (m, w, k) with
    m <= stack_size(w * k), so a stack holds at most ``STACK_CELLS`` entries
    or one basis; each is built from its range of counts, and every stack but
    the last is full, so a stack can span pivot combinations.
    """
    size = stack_size(w * k)
    pieces: list[np.ndarray] = []
    held = 0
    for pivots in itertools.combinations(range(k), w):
        free = [
            (row, col)
            for row in range(w)
            for col in range(pivots[row] + 1, k)
            if col not in pivots
        ]
        template = np.zeros((1, w, k), dtype=np.int64)
        template[0, range(w), pivots] = 1
        total = q ** len(free)
        # counts past int64, reachable only with the cost guard lifted, stay Python ints
        kind = np.int64 if total < 2**63 else object
        places = np.array([q**e for e in reversed(range(len(free)))], dtype=kind)
        rows, cols = [row for row, _ in free], [col for _, col in free]
        start = 0
        while start < total:
            stop = min(total, start + size - held)
            block = np.repeat(template, stop - start, axis=0)
            block[:, rows, cols] = np.arange(start, stop, dtype=kind)[:, None] // places % q
            pieces.append(block)
            held += stop - start
            start = stop
            if held == size:
                yield np.concatenate(pieces)
                pieces, held = [], 0
    if pieces:
        yield np.concatenate(pieces)


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
    if w in (0, inst.k):  # one subspace: its single matrix is ranked alone
        ((basis,),) = stacks
        yield basis, saturate(inst.splitting, [inst.combine(row) for row in basis.tolist()])
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
        # an equal saturation gives equal degrees for every r, so it never
        # displaces the first basis that reached them
        seen: set[SaturationResult] = set()
        for basis, sat in _saturations(inst, pairing, w):
            if sat in seen:
                continue
            seen.add(sat)
            for r in range(max(sat.rank, 1), n + 1):
                if (r, w) == (n, k):
                    continue
                e = sat.degree + max_subbundle_degree(sat.quotient_type, r - sat.rank)
                key = (r, w)
                cur = best.get(key)
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
    irrational, so this is computed by the exact closure oracle.
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
    s1, s2 = inst.sections
    if t >= 1:
        first = [s1[i] for i in range(n - t, n)]
        second = [s2[i] for i in range(n - t, n)]
        delta = pencil_min_rank(first, second, a - 1, inst.field)
        r = n // 2
        return (Candidate(r, r * a - delta, 1, None),)
    delta = pencil_min_rank(list(s1), list(s2), a, inst.field)
    # the combination lands in a rank-delta balanced factor of degree a*delta
    return (Candidate(delta, a * delta, 1, None),)


def subsystem_candidates(inst: SystemInstance, allow_large: bool = False) -> tuple[Candidate, ...]:
    """All extremal destabilization candidates, rational plus closure ones."""
    count = _subspace_count(inst.k, inst.q)
    if count > COST_GUARD_MAX_SUBSPACES and not allow_large:
        raise ValueError(
            f"refusing to enumerate {count} subspaces for k = {inst.k} over F_{inst.q} "
            f"(limit {COST_GUARD_MAX_SUBSPACES}); pass allow_large=True / --force-large"
        )
    return _rational_candidates(inst) + _closure_candidates(inst)


def total_slope(inst: SystemInstance, alpha: Fraction) -> Fraction:
    """The weighted slope (d + alpha * k) / n of the whole pair."""
    p, s = alpha.numerator, alpha.denominator
    return Fraction(inst.d * s + inst.k * p, inst.n * s)


def _constraints(inst: SystemInstance, allow_large: bool) -> list[tuple[int, int, Candidate]]:
    """(N, D, candidate) for each candidate, with N = n e - r d and D = r k - n w.

    A candidate of rank r, degree e and section dimension w violates at the
    weight alpha when (e + alpha w) / r >= (d + alpha k) / n, which clears to
    the linear constraint N >= alpha D.
    """
    n, d, k = inst.n, inst.d, inst.k
    return [
        (n * cand.degree - cand.rank * d, cand.rank * k - n * cand.sections_dim, cand)
        for cand in subsystem_candidates(inst, allow_large)
    ]


def is_alpha_stable(
    inst: SystemInstance, alpha: Fraction | int, allow_large: bool = False
) -> StabilityReport:
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
    for num, den, cand in _constraints(inst, allow_large):
        excess = num * s - p * den
        if excess >= 0:
            rational = cand.basis is not None
            violators.append((cand.slope(alpha), rational, cand))
            if excess and rational:
                semistable = False
    # the first steepest violator, a rational one on a tie
    witness = max(violators, key=lambda v: v[:2])[2] if violators else None
    return StabilityReport(alpha, not violators, semistable, total_slope(inst, alpha), witness)


def critical_alphas(inst: SystemInstance, allow_large: bool = False) -> list[Fraction]:
    """Weights where some rational candidate slope crosses the total slope.

    A rational candidate's constraint N >= alpha D is tight at alpha = N / D,
    a weight only when D != 0 and N / D >= 0 (N D >= 0), so the fraction is
    built for those alone.
    """
    crits: set[Fraction] = set()
    for num, den, cand in _constraints(inst, allow_large):
        if cand.basis is None:
            continue  # closure candidates have proportional invariants: no crossing
        if den and num * den >= 0:
            crits.add(Fraction(num, den))
    return sorted(crits)


def stability_interval(inst: SystemInstance, allow_large: bool = False) -> AlphaInterval:
    """The set of weights where the instance is stable, as one open interval.

    Candidate constraints are linear in the weight, so the stable set is an
    intersection of open half-lines: a single open interval (or empty).  One
    sample inside each cell cut out by the critical weights decides it.
    """
    boundaries = [Fraction(0)] + [c for c in critical_alphas(inst, allow_large) if c > 0]
    samples = [
        (boundaries[i] + boundaries[i + 1]) / 2 for i in range(len(boundaries) - 1)
    ]
    samples.append(boundaries[-1] + 1)
    flags = [is_alpha_stable(inst, s, allow_large).stable for s in samples]
    stable_cells = [i for i, f in enumerate(flags) if f]
    if not stable_cells:
        return AlphaInterval.EMPTY
    first, last = stable_cells[0], stable_cells[-1]
    if stable_cells != list(range(first, last + 1)):
        raise RuntimeError("stable cells are not contiguous; checker bug")
    lower = boundaries[first]
    upper = None if last == len(boundaries) - 1 else boundaries[last + 1]
    return AlphaInterval.open_interval(lower, upper)


def check_global_generation(inst: SystemInstance) -> bool:
    """Whether the sections generate the bundle at every point of the closure.

    The evaluation map O^k -> E is onto iff its image subsheaf has full rank
    and full degree; the image degree is minus the degree of the kernel of
    the section matrix viewed as a sheaf map.  For k = n + 1 this is the
    maximal-minor criterion: ``kernel_splitting`` reads the line kernel
    O(-d + deg gcd) from the n x n minors, so the sections generate exactly
    when some minor is nonzero and the minors share no zero on P^1.
    """
    if inst.k == 0:
        return False
    source = SplittingType((0,) * inst.k)
    entries = [
        [inst.sections[s][i] for s in range(inst.k)] for i in range(inst.n)
    ]
    kern = kernel_splitting(source, inst.splitting, entries)
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
    h0 = cohomology(splitting, 0)[0]
    if k > h0:
        raise ValueError(f"cannot draw {k} independent sections: h0 = {h0}")
    for attempt in range(1000):
        rng = random.Random(mix_seed(n, d, k, q, seed, attempt))
        sections = [
            tuple(
                BinaryForm(field, tuple(rng.randrange(q) for _ in range(max(0, a + 1))))
                for a in splitting
            )
            for _ in range(k)
        ]
        try:
            return SystemInstance(field, splitting, tuple(sections))
        except ValueError:
            # k <= h0 is checked above and the draw has its degree profile by
            # construction, so the instance refuses a dependent draw only
            continue
    raise RuntimeError("failed to draw independent sections; is h0 >= k?")


def sample_generating_instance(
    n: int, d: int, k: int, q: int, seed: int, max_tries: int = 500
) -> SystemInstance:
    """Like ``sample_instance`` but conditioned on globally generating sections."""
    for offset in range(max_tries):
        inst = sample_instance(n, d, k, q, mix_seed(seed, offset))
        if check_global_generation(inst):
            return inst
    raise RuntimeError(
        f"no globally generating draw for ({n},{d},{k}) over F_{q} in {max_tries} tries"
    )
