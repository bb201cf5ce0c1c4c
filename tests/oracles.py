"""Reference code that the tests check the program against.

The program never calls these.  Each is written the plain way, with loops
over coefficients or a direct enumeration, so that it does not share the
shortcuts of the code it checks: form arithmetic and splitting types from
unsorted degrees for building test inputs, the value of a form at a point
behind ``SectionPairing._point_values``, the per-component sum behind
``combine_sections``, coordinate changes for invariance tests, the
endomorphism type for ``generic_splitting``, the Shatz embedding test and the
k = 1 degree list for ``decompose``, the evaluation rank of an instance
at a point, global generation from the sympy minors of the section matrix,
the tuple-by-tuple generator of echelon bases, the candidate walk that reads
every basis's saturation, the verdict and critical weights from ``Fraction``
slopes, the lock-step kernel scan that never settles a map from one count
(and ``kernel_splitting`` through it, with no maximal-minor read), sympy
determinants over GF(q)[t], the row-swapping numpy elimination for ranks,
and the term-by-term sum behind ``stacked_combination``.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from cohsys import bundles
from cohsys.bundles import SectionPairing, SplittingType, max_subbundle_degree, saturate
from cohsys.exactmath import BinaryForm, FieldMatrix, generic_rank
from cohsys.stability import Candidate, StabilityReport, echelon_stacks, subsystem_candidates


# -- binary forms --------------------------------------------------------------


def add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f + g; both nonzero forms must have one degree."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if f.degree != g.degree:
        raise ValueError("cannot add forms of different degrees")
    return BinaryForm(f.field, tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def scale(f: BinaryForm, c: int) -> BinaryForm:
    """c * f; a zero scalar gives the zero form."""
    return BinaryForm(f.field, tuple(c * a for a in f.coeffs))


def mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f * g, by the schoolbook product of coefficient lists."""
    if f.is_zero or g.is_zero:
        return BinaryForm.zero(f.field)
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return BinaryForm(f.field, tuple(out))


def evaluate(f: BinaryForm, b: int, c: int) -> int:
    """f(b, c) mod q, term by term: the zero form is 0 everywhere."""
    q = f.field.q
    d = f.degree
    return sum(coeff * b ** (d - i) * c ** i for i, coeff in enumerate(f.coeffs)) % q


def compose_linear(f: BinaryForm, m00: int, m01: int, m10: int, m11: int) -> BinaryForm:
    """f with x -> m00*x + m01*y and y -> m10*x + m11*y substituted."""
    if f.is_zero:
        return f
    u = BinaryForm(f.field, (m00, m01))
    v = BinaryForm(f.field, (m10, m11))
    d = f.degree
    total = BinaryForm.zero(f.field)
    for i, coeff in enumerate(f.coeffs):
        term = BinaryForm(f.field, (coeff,))
        for _ in range(d - i):
            term = mul(term, u)
        for _ in range(i):
            term = mul(term, v)
        total = add(total, term)
    return total


def componentwise_sum(field, sections, coeffs) -> tuple[BinaryForm, ...]:
    """sum(coeffs[l] * sections[l]), one component at a time with ``add``/``scale``."""
    out = []
    for i in range(len(sections[0])):
        acc = BinaryForm.zero(field)
        for c, s in zip(coeffs, sections):
            acc = add(acc, scale(s[i], c))
        out.append(acc)
    return tuple(out)


# -- bundles and numerology ----------------------------------------------------


def splitting_type(*degrees: int) -> SplittingType:
    """The splitting type with these degrees, in any order."""
    return SplittingType(tuple(sorted(degrees, reverse=True)))


def endomorphism_type(t: SplittingType) -> SplittingType:
    """Splitting type of End = Hom(t, t), i.e. all pairwise differences."""
    return SplittingType(tuple(sorted((a - b for a in t for b in t), reverse=True)))


def shatz_embedding_exists(e: SplittingType, g: SplittingType, k: int) -> bool:
    """Whether O^k embeds in e with quotient g, by the polygon criterion.

    Tests the two conditions on E = e and F = g + O^k: the polygon of F
    dominates the polygon of E, and b_i > a_i holds exactly for i <= n - k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = e.rank
    if g.rank + k != n:
        raise ValueError(f"rank mismatch: {g.rank} + {k} != {n}")
    f = SplittingType(tuple(sorted(g.degrees + (0,) * k, reverse=True)))
    if any(pf < pe for pf, pe in zip(itertools.accumulate(f), itertools.accumulate(e))):
        return False
    return all((f[i] > e[i]) == (i < n - k) for i in range(n))


def valid_degrees_k1(n: int, d_max: int) -> list[int]:
    """All d <= d_max of the shape n(n-1)l + mn + t(n-1), l >= 1.

    These are exactly the degrees where a one-section pair can be stable for
    some weight, enumerated from the parametrization rather than by
    filtering ``decompose``.
    """
    if n < 2:
        raise ValueError("rank n must be >= 2")
    out: set[int] = set()
    base = n * (n - 1)
    l = 1
    while base * l <= d_max:
        for m in range(n - 1):
            for t in range(n):
                d = base * l + m * n + t * (n - 1)
                if d <= d_max:
                    out.add(d)
        l += 1
    return sorted(out)


# -- instances -----------------------------------------------------------------


def sympy_generates(inst) -> bool:
    """``check_global_generation(inst)`` from the n x n minors of the section matrix.

    The n x k matrix has entry (i, l) = component i of section l.  Its
    sections generate E exactly when its n x n minors, forms of degree d,
    share no zero on P^1: some minor is nonzero, the gcd of the minors
    f(t, 1) over GF(q) is constant, and not every minor vanishes at (1 : 0),
    where f(t, 1) has degree below d.
    """
    n, q = inst.n, inst.q
    minors = [
        sympy_det([[inst.sections[l][i] for l in cols] for i in range(n)], q)
        for cols in itertools.combinations(range(inst.k), n)
    ]
    minors = [m for m in minors if m]
    if not minors or all(len(m) - 1 < inst.d for m in minors):
        return False
    gcd = functools.reduce(Poly.gcd, (Poly(m, T, modulus=q) for m in minors))
    return gcd.degree() == 0


def evaluation_rank_at_point(inst, b: int, c: int) -> int:
    """Rank of the k x n matrix of section values at (b : c)."""
    q = inst.q
    if b % q == 0 and c % q == 0:
        raise ValueError("(0, 0) is not a projective point")
    rows = [[evaluate(f, b, c) for f in s] for s in inst.sections]
    return FieldMatrix.from_rows(inst.field, rows).rank()


def echelon_bases(k: int, w: int, q: int):
    """Reduced row-echelon bases of all w-subspaces of F_q^k, one tuple of rows each.

    Ordered by pivot-column combination, then lexicographically in the free
    entries through ``itertools.product``.
    """
    if w == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(k), w):
        free = [
            (row, col)
            for row in range(w)
            for col in range(pivots[row] + 1, k)
            if col not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * k for _ in range(w)]
            for row, p in enumerate(pivots):
                rows[row][p] = 1
            for (row, col), v in zip(free, vals):
                rows[row][col] = v
            yield tuple(tuple(r) for r in rows)


def per_basis_saturations(pairing, stack) -> list:
    """``pairing.saturate_stack(stack)`` read per basis: one saturation for each."""
    distinct, index = pairing.saturate_stack(stack)
    return [distinct[i] for i in index.tolist()]


def per_basis_candidates(inst):
    """The candidates of ``stability._rational_candidates`` from every basis in turn.

    Walks each echelon stack basis by basis with its own saturation, skipping
    a saturation already seen in that dimension, and keeps the first basis
    that reaches the largest degree for each (rank, dim W).
    """
    n, k = inst.n, inst.k
    pairing = SectionPairing(inst.field, inst.splitting, inst.sections)
    best = {}
    for w in range(k + 1):
        seen = set()
        for stack in echelon_stacks(k, w, inst.q):
            if w in (0, k):
                (basis,) = stack.tolist()
                sats = [saturate(inst.splitting, [inst.combine(row) for row in basis])]
            else:
                sats = per_basis_saturations(pairing, stack)
            for basis, sat in zip(stack.tolist(), sats):
                if sat in seen:
                    continue
                seen.add(sat)
                for r in range(max(sat.rank, 1), n + 1):
                    if (r, w) == (n, k):
                        continue
                    e = sat.degree + max_subbundle_degree(sat.quotient_type, r - sat.rank)
                    cur = best.get((r, w))
                    if cur is None or e > cur.degree:
                        best[(r, w)] = Candidate(r, e, w, tuple(map(tuple, basis)))
    return tuple(best[key] for key in sorted(best))


# -- verdicts ------------------------------------------------------------------


def fraction_verdict(inst, alpha) -> StabilityReport:
    """``is_alpha_stable(inst, alpha)`` by comparing ``Fraction`` slopes.

    Every candidate's slope (e + alpha w) / r is built and compared with the
    total slope (d + alpha k) / n: a slope that reaches it breaks stability,
    and a rational one above it breaks semistability.  The witness is the
    first steepest violator, a rational one on a tie.
    """
    alpha = Fraction(alpha)
    mu = Fraction(inst.d, inst.n) + alpha * Fraction(inst.k, inst.n)
    violators = []
    for cand in subsystem_candidates(inst):
        slope = Fraction(cand.degree + cand.sections_dim * alpha, cand.rank)
        if slope >= mu:
            violators.append((slope, cand.basis is not None, cand))
    semistable = not any(slope > mu and rational for slope, rational, _ in violators)
    witness = max(violators, key=lambda v: v[:2])[2] if violators else None
    return StabilityReport(alpha, not violators, semistable, mu, witness)


def fraction_critical_alphas(inst) -> list:
    """``critical_alphas(inst)``: each rational candidate's crossing weight, if >= 0."""
    crits = set()
    for cand in subsystem_candidates(inst):
        if cand.basis is None:
            continue
        denom = cand.rank * inst.k - inst.n * cand.sections_dim
        if denom == 0:
            continue
        alpha = Fraction(inst.n * cand.degree - cand.rank * inst.d, denom)
        if alpha >= 0:
            crits.add(alpha)
    return sorted(crits)


# -- kernels -------------------------------------------------------------------


def lockstep_kernel(source, target, entries):
    """``kernel_splitting`` by ``lockstep_scan`` on the twist matrices, for every map.

    The probes go through ``bundles._twist_kernel_dimension``, looked up at
    each call, so a test that counts the program's probes counts these too.
    """
    rho = source.rank - generic_rank(entries, target.degrees, [-s for s in source])
    if not source.rank:
        return SplittingType(())
    field = entries[0][0].field if entries else None

    def probe(live, j):
        twist = bundles._twist_matrix(source, target, entries, j)
        return bundles._twist_kernel_dimension(field, twist[None])

    (degrees,) = lockstep_scan(source, target, [rho], probe)
    return SplittingType(tuple(degrees))


def lockstep_scan(source, target, rhos, probe):
    """Kernel summand degrees of a stack of maps, stepping every twist to the end.

    The scan of ``bundles._count_scan`` without its one rule
    (``bundles._missing_summands``), which settles a map from one count:
    every live map is probed at each twist j until its counts reach its rho.
    """
    j = -max(source.degrees) - 1
    degrees = [[] for _ in rhos]
    prev_h = [0] * len(rhos)
    prev_c = [0] * len(rhos)
    live = [m for m, rho in enumerate(rhos) if rho > 0]
    while live:
        j += 1
        for m, h in zip(live, probe(live, j).tolist()):
            c = h - prev_h[m]
            degrees[m] += [-j] * (c - prev_c[m])
            prev_h[m], prev_c[m] = h, c
        live = [m for m in live if prev_c[m] < rhos[m]]
    return degrees


# -- matrices over F_q ---------------------------------------------------------


T = symbols("t")


def sympy_det(entries, q):
    """det over GF(q)[t] of the entries f(t, 1): big-endian residues, [] for zero."""
    ring = GF(q)[T]
    n = len(entries)
    rows = [
        [ring.from_sympy(sum(c * T ** (f.degree - i) for i, c in enumerate(f.coeffs))) for f in row]
        for row in entries
    ]
    det = DomainMatrix(rows, (n, n), ring).det()
    coeffs = [int(c) % q for c in ring.to_sympy(det).as_poly(T, modulus=q).all_coeffs()]
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    return coeffs


def row_swap_rank(q: int, data) -> int:
    """Rank of one matrix over F_q by Gaussian elimination on int64 rows.

    The first row that is nonzero in a column is swapped up, scaled by its
    inverse and subtracted from every row below with a nonzero there; every
    product is reduced at once.
    """
    a = np.asarray(data, dtype=np.int64) % q
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        a[r] = a[r] * inv % q
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % q
        r += 1
    return r


def termwise_combination(bases, mats, q: int):
    """sum over l of bases[..., l] * mats[l], mod q, one term at a time.

    Each product is reduced before it is added, which keeps every value
    below 2 * q**2 even for q near 2**31.
    """
    bases = np.asarray(bases, dtype=np.int64) % q
    mats = np.asarray(mats, dtype=np.int64) % q
    spread = (Ellipsis,) + (None,) * (mats.ndim - 1)
    out = np.zeros(bases.shape[:-1] + mats.shape[1:], dtype=np.int64)
    for idx, mat in enumerate(mats):
        out = (out + bases[..., idx][spread] * mat % q) % q
    return out
