"""Reference code that the tests check the program against.

The program never calls these.  Each is written the plain way, with loops
over coefficients or a direct enumeration, so that it does not share the
shortcuts of the code it checks: form arithmetic on plain coefficient
tuples, which ``pack`` turns into the program's form matrices (one int64
array of slots per matrix, with its degree profile) and ``unpack`` reads
back, and splitting types from unsorted degrees for building test inputs;
the per-entry degree check behind ``exactmath.check_profile``, the value of
a form at a point behind ``exactmath.point_values``, the per-component sum
behind ``SystemInstance.combine``, coordinate changes for invariance tests, the
endomorphism type for ``generic_splitting``, the Shatz embedding test and the
k = 1 degree list for ``decompose``, the evaluation rank of an instance
at a point, global generation from the sympy minors of the section matrix,
the dimension of a pair's endomorphism algebra from the nullity of one
linear system (the reference for a simplicity test of stable pairs), the
tuple-by-tuple generator of echelon bases, the candidate walk that reads
every basis's saturation, the verdict and critical weights from ``Fraction``
slopes, the stable interval from a verdict in every cell between critical
weights, the lock-step kernel scan that never settles a map from one count
(and ``kernel_splitting`` through it, with no maximal-minor read), sympy
determinants over GF(q)[t] and the common divisor of every minor of one
size from them, the fraction-free elimination over F_q[x, y]
whose ranks and determinants the integer elimination of
``exactmath._bareiss`` replaced, the row-swapping numpy elimination for
ranks, the reduced echelon basis of a span, the generic ranks of a span
stack from its values at three points, which the one-residual read of
``SectionPairing._generic_ranks`` replaced, and the term-by-term sum behind
``stacked_combination``.  Three
references take another route altogether: the stable interval in closed form
from the candidates' linear constraints, a rank-2 verdict over GF(q^m) that
enumerates line subsheaves instead of section subspaces, and the closed-form
point count of the (n, d, n + 1) moduli at large weight.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from cohsys import bundles
from cohsys.bundles import SectionPairing, SplittingType, max_subbundle_degree, saturate
from cohsys.classification import AlphaInterval
from cohsys.exactmath import (
    FieldMatrix,
    _bareiss,
    _leading_zeros,
    _poly_divmod,
    stacked_combination,
    stacked_rank,
)
from cohsys.stability import (
    Candidate,
    StabilityReport,
    SystemInstance,
    critical_alphas,
    echelon_stacks,
    is_alpha_stable,
    subsystem_candidates,
)


# -- binary forms --------------------------------------------------------------
#
# A form of degree d is the tuple of its d + 1 coefficients over F_q, index i
# multiplying x**(d - i) * y**i, and the zero form is ().


def form(coeffs, q: int) -> tuple[int, ...]:
    """The coefficients reduced mod q, as Python ints; all zero gives the zero form ()."""
    reduced = tuple(int(c) % q for c in coeffs)
    return reduced if any(reduced) else ()


def degree(f) -> int:
    """len(f) - 1: -1 for the zero form."""
    return len(f) - 1


def add(f, g, q: int):
    """f + g; both nonzero forms must have one degree."""
    if not f:
        return g
    if not g:
        return f
    if len(f) != len(g):
        raise ValueError("cannot add forms of different degrees")
    return form([a + b for a, b in zip(f, g)], q)


def scale(f, c: int, q: int):
    """c * f; a zero scalar gives the zero form."""
    return form([c * a for a in f], q)


def mul(f, g, q: int):
    """f * g, by the schoolbook product of coefficient lists."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return form(out, q)


def evaluate(f, b: int, c: int, q: int) -> int:
    """f(b, c) mod q, term by term: the zero form is 0 everywhere."""
    d = degree(f)
    return sum(coeff * b ** (d - i) * c ** i for i, coeff in enumerate(f)) % q


def compose_linear(f, m00: int, m01: int, m10: int, m11: int, q: int):
    """f with x -> m00*x + m01*y and y -> m10*x + m11*y substituted."""
    if not f:
        return f
    u, v = form((m00, m01), q), form((m10, m11), q)
    d = degree(f)
    total = ()
    for i, coeff in enumerate(f):
        term = form((coeff,), q)
        for _ in range(d - i):
            term = mul(term, u, q)
        for _ in range(i):
            term = mul(term, v, q)
        total = add(total, term, q)
    return total


def componentwise_sum(sections, coeffs, q: int) -> tuple:
    """sum(coeffs[l] * sections[l]), one component at a time with ``add``/``scale``."""
    out = []
    for i in range(len(sections[0])):
        acc = ()
        for c, s in zip(coeffs, sections):
            acc = add(acc, scale(s[i], c, q), q)
        out.append(acc)
    return tuple(out)


# -- form matrices ---------------------------------------------------------------


def pack(entries, row_degrees, col_degrees) -> np.ndarray:
    """The program's form matrix of nested forms, shape (rows, cols, m + 1) from the profile.

    Each form's coefficients fill its entry's slots from slot 0; the rest are
    zero.  There is a slot for every degree of the profile and for every
    coefficient given, so a form longer than its degree lands past its slot.
    """
    top = max(row_degrees, default=0) + max(col_degrees, default=0)
    slots = max([1, top + 1] + [len(f) for row in entries for f in row])
    out = np.zeros((len(row_degrees), len(col_degrees), slots), dtype=np.int64)
    for i, row in enumerate(entries):
        for j, f in enumerate(row):
            out[i, j, : len(f)] = f
    return out


def unpack(coeffs, row_degrees, col_degrees) -> tuple:
    """The nested forms of a form matrix: entry (i, j) as its deg + 1 slots, () for zero."""
    rows = np.asarray(coeffs).tolist()
    slots = [[entry[: max(0, r + c + 1)] for entry, c in zip(row, col_degrees)] for row, r in zip(rows, row_degrees)]
    return tuple(tuple(tuple(f) if any(f) else () for f in row) for row in slots)


def tuple_check_profile(entries, row_degrees, col_degrees) -> None:
    """``exactmath.check_profile`` on nested forms, entry by entry.

    The shape must be len(row_degrees) x len(col_degrees), and each nonzero
    entry (i, j) must have degree row_degrees[i] + col_degrees[j].
    """
    if len(entries) != len(row_degrees) or any(len(row) != len(col_degrees) for row in entries):
        raise ValueError("matrix shape does not match its degree profile")
    for i, row in enumerate(entries):
        for j, f in enumerate(row):
            slot = row_degrees[i] + col_degrees[j]
            if f and degree(f) != slot:
                raise ValueError(f"entry ({i},{j}) has degree {degree(f)}, expected {slot}")


def rows_rank(field, rows) -> int:
    """``FieldMatrix.rank`` of a list of rows of residues; no rows have rank 0."""
    if not rows:
        return 0
    return FieldMatrix(field, np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))).rank()


# -- instances, as forms ---------------------------------------------------------


def make_instance(field, splitting, sections) -> SystemInstance:
    """The instance of k sections given as tuples of forms, one per summand."""
    return SystemInstance(field, splitting, pack(sections, [0] * len(sections), splitting.degrees))


def section_forms(inst) -> tuple:
    """The sections of an instance as tuples of forms, one per summand."""
    return unpack(inst.sections, [0] * inst.k, inst.splitting.degrees)


def padded_sections(inst) -> list:
    """Each section's components, each as the a + 1 coefficients of its O(a) slot."""
    return [
        [comp[: max(0, a + 1)] for comp, a in zip(sec, inst.splitting)]
        for sec in inst.sections.tolist()
    ]


def span_saturation(inst, basis):
    """``saturate`` of the span of the sections ``inst.combine`` makes from the rows of basis."""
    basis = np.asarray(basis, dtype=np.int64).reshape(-1, inst.k)  # () for w = 0
    return saturate(inst.field, inst.splitting, inst.combine(basis))


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
    sections = section_forms(inst)
    minors = [
        sympy_det([[sections[l][i] for l in cols] for i in range(n)], q)
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
    rows = [[evaluate(f, b, c, q) for f in s] for s in section_forms(inst)]
    return rows_rank(inst.field, rows)


def endomorphism_dimension(inst) -> int:
    """dim End(E, V), the endomorphisms phi of E with phi(V) inside V.

    The nullity of the system phi(s_l) = sum_m A_lm s_m, read in the monomial
    basis of H^0(E): k * h0(E) equations in the h0(End E) coefficients of phi,
    one form of degree a_i - a_j from summand j to summand i when a_i >= a_j,
    and the k^2 entries of A.  The sections are independent, so each phi with
    phi(V) inside V has exactly one A.
    """
    degrees = inst.splitting.degrees
    padded = padded_sections(inst)
    starts = list(itertools.accumulate((max(0, a + 1) for a in degrees), initial=0))
    h0 = starts[-1]
    columns = []
    for i, a in enumerate(degrees):
        for j, b in enumerate(degrees):
            for u in range(a - b + 1):  # phi_ij = x^(a - b - u) y^u
                col = [0] * (inst.k * h0)
                for l, section in enumerate(padded):
                    for c, coeff in enumerate(section[j]):
                        col[l * h0 + starts[i] + u + c] += coeff
                columns.append(col)
    for l in range(inst.k):
        for section in padded:  # A_lm
            col = [0] * (inst.k * h0)
            for i, component in enumerate(section):
                for c, coeff in enumerate(component):
                    col[l * h0 + starts[i] + c] -= coeff
            columns.append(col)
    rows = [list(row) for row in zip(*columns)]
    return len(columns) - rows_rank(inst.field, rows)


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
                sats = [span_saturation(inst, basis)]
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


def sampled_interval(inst) -> AlphaInterval:
    """``stability_interval(inst)`` from a verdict in every cell between critical weights.

    The cells are cut by 0 and the positive critical weights; each is sampled
    at its midpoint, the unbounded last one at its lower end plus 1.  The
    stable cells must be contiguous, and the interval runs from the first
    one's lower end to the last one's upper end.
    """
    boundaries = [Fraction(0)] + [c for c in critical_alphas(inst) if c > 0]
    samples = [(lo + hi) / 2 for lo, hi in zip(boundaries, boundaries[1:])]
    samples.append(boundaries[-1] + 1)
    stable_cells = [i for i, s in enumerate(samples) if is_alpha_stable(inst, s).stable]
    if not stable_cells:
        return AlphaInterval.EMPTY
    first, last = stable_cells[0], stable_cells[-1]
    if stable_cells != list(range(first, last + 1)):
        raise AssertionError("stable cells are not contiguous")
    upper = None if last == len(boundaries) - 1 else boundaries[last + 1]
    return AlphaInterval.open_interval(boundaries[first], upper)


def closed_form_interval(inst) -> AlphaInterval:
    """``stability_interval(inst)`` from the candidates' linear constraints, with no sampling.

    A candidate of rank r, degree e and section dimension w violates at alpha
    when N >= alpha D, with N = n e - r d and D = r k - n w.  So the stable
    set is empty when some candidate has D = 0 <= N, and otherwise it is the
    open interval above every N / D with D > 0 (and above 0) and below every
    N / D with D < 0.
    """
    lower, upper = Fraction(0), None
    for cand in subsystem_candidates(inst):
        num = inst.n * cand.degree - cand.rank * inst.d
        den = cand.rank * inst.k - inst.n * cand.sections_dim
        if den == 0 and num >= 0:
            return AlphaInterval.EMPTY
        if den > 0:
            lower = max(lower, Fraction(num, den))
        elif den < 0:
            upper = Fraction(num, den) if upper is None else min(upper, Fraction(num, den))
    return AlphaInterval.open_interval(lower, upper)


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


def lockstep_kernel(field, source, target, coeffs):
    """``kernel_splitting`` by ``lockstep_scan`` on the twist matrices, for every map.

    The kernel rank comes from ``bareiss_rank`` of the map's forms.  The
    probes go through ``bundles._twist_kernel_dimension``, looked up at each
    call, so a test that counts the program's probes counts these too.
    """
    cols = [-s for s in source]
    rho = source.rank - bareiss_rank(unpack(coeffs, target.degrees, cols), target.degrees, cols, field.q)
    if not source.rank:
        return SplittingType(())

    def probe(live, j):
        twist = bundles._twist_matrix(source, target, coeffs, j)
        return bundles._twist_kernel_dimension(field, twist[None], twist.shape[1])

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
        [ring.from_sympy(sum(c * T ** (degree(f) - i) for i, c in enumerate(f))) for f in row]
        for row in entries
    ]
    det = DomainMatrix(rows, (n, n), ring).det()
    coeffs = [int(c) % q for c in ring.to_sympy(det).as_poly(T, modulus=q).all_coeffs()]
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    return coeffs


def sympy_minor_divisor_degree(entries, row_degrees, col_degrees, size, q):
    """Degree of the common divisor of every size x size minor; None when all vanish.

    Every minor is a ``sympy_det``, whether or not the answer is settled.
    The minor on rows R and columns C is a form of degree D, the sum of
    their degrees, so the power of y dividing it is D less the degree of its
    f(t, 1).  The divisor is the least such power plus the degree of the gcd
    of the f(t, 1) over GF(q).
    """
    dets = []
    for rows in itertools.combinations(range(len(row_degrees)), size):
        for cols in itertools.combinations(range(len(col_degrees)), size):
            det = sympy_det([[entries[i][j] for j in cols] for i in rows], q)
            if det:
                total = sum(row_degrees[i] for i in rows) + sum(col_degrees[j] for j in cols)
                dets.append((total - (len(det) - 1), det))
    if not dets:
        return None
    gcd = functools.reduce(Poly.gcd, (Poly(det, T, modulus=q) for _, det in dets))
    return min(y_power for y_power, _ in dets) + gcd.degree()


def _poly_mul_sub(a, b, c, d, q: int) -> list[int]:
    """a*b - c*d reduced mod q, or [] when it vanishes; both products share a degree."""
    ab = bool(a) and bool(b)
    cd = bool(c) and bool(d)
    if not (ab or cd):
        return []
    out = [0] * (len(a) + len(b) - 1 if ab else len(c) + len(d) - 1)
    if ab:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
    if cd:
        for i, x in enumerate(c):
            if x:
                for j, y in enumerate(d):
                    out[i + j] -= x * y
    out = [v % q for v in out]
    return out if any(out) else []


def _polynomial_bareiss(entries, row_degrees, col_degrees, q) -> tuple[int, int, tuple]:
    """Rank, swap sign and last pivot of a form matrix by fraction-free elimination over F_q[x, y].

    The path ``exactmath._bareiss`` took before Kronecker substitution
    (Bareiss 1968): first-nonzero pivoting with column skipping, each step
    replacing the entries below and right of the pivot p by
    (p*a - b*c) / previous pivot, an exact division of binary forms, so every
    entry stays a minor of the input.
    """
    tuple_check_profile(entries, row_degrees, col_degrees)
    nrows, ncols = len(row_degrees), len(col_degrees)
    rank, sign, prev = 0, 1, (1,)
    if not (nrows and ncols):
        return rank, sign, prev
    rows = [list(row) for row in entries]
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top, p = rows[rank], rows[rank][col]
        shift = _leading_zeros(prev)
        divisor = prev[shift:]
        for row in rows[rank + 1 :]:
            lead = row[col]
            for c in range(col + 1, ncols):
                num = _poly_mul_sub(p, row[c], lead, top[c], q)
                if num and rank:  # the first step divides by the constant 1
                    num = _poly_divmod(num[shift:], divisor, q)[0]
                row[c] = num
        prev = p
        rank += 1
    return rank, sign, tuple(prev)


def bareiss_rank(entries, row_degrees, col_degrees, q) -> int:
    """Rank over F_q(t) of a form matrix: the number of pivots of ``_polynomial_bareiss``."""
    return _polynomial_bareiss(entries, row_degrees, col_degrees, q)[0]


def bareiss_determinant(entries, q, row_degrees, col_degrees) -> tuple:
    """Determinant of a square form matrix by ``_polynomial_bareiss``.

    The last pivot, signed by the row swaps, is the determinant; a column with
    no pivot makes it zero.
    """
    n = len(row_degrees)
    if len(col_degrees) != n:
        raise ValueError("determinant needs a square matrix")
    rank, sign, prev = _polynomial_bareiss(entries, row_degrees, col_degrees, q)
    if rank < n:
        return ()
    return form([sign * c for c in prev], q)


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


def reduced_echelon(q: int, rows) -> list:
    """The reduced row-echelon basis of the span of rows over F_q; zero rows drop out.

    Each column takes the first row left that is nonzero there, scaled to a
    leading 1, and clears the column in every other row, the basis made so
    far included.
    """
    rows = [[v % q for v in row] for row in rows]
    basis = []
    for c in range(len(rows[0]) if rows else 0):
        top = next((row for row in rows if row[c]), None)
        if top is None:
            continue
        rows.remove(top)
        inv = pow(top[c], q - 2, q)
        top = [v * inv % q for v in top]
        basis = [[(v - row[c] * t) % q for v, t in zip(row, top)] for row in basis]
        rows = [[(v - row[c] * t) % q for v, t in zip(row, top)] for row in rows]
        basis.append(top)
    return basis


def three_point_generic_ranks(pairing, bases) -> list:
    """``SectionPairing._generic_ranks`` from each span's values at the three points.

    Each span's w x n values at the three points of ``point_values`` are
    combined from the sections' values and ranked in one stacked
    elimination, all spans at once.  A span of full rank min(w, n) at none
    of them goes to ``exactmath._bareiss``, combined alone.
    """
    count, w, _ = np.shape(bases)
    n, q = pairing.e.rank, pairing.field.q
    values = stacked_combination(bases, pairing._point_values, q)
    values = values.transpose(0, 2, 1, 3).reshape(-1, w, n)
    ranks = stacked_rank(pairing.field, values).reshape(-1, 3).max(axis=1).tolist()
    for m in range(count):
        if ranks[m] < min(w, n):
            coeffs = stacked_combination(bases[m], pairing.sections, q)
            ranks[m] = _bareiss(coeffs, [0] * w, pairing.e.degrees, q)[0]
    return ranks


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


# -- the sheaf side, over F_q and its extensions -------------------------------


class ExtensionField:
    """GF(q^m) for q^m <= 25, with addition, product, negation and inverse tables.

    Element i is the polynomial in u whose coefficient of u^j is the j-th
    base-q digit of i, taken modulo the first monic polynomial of degree m,
    in the order of its digits, whose residues form a field: no two nonzero
    ones multiply to zero.  So the residues 0..q-1 are F_q itself.
    """

    def __init__(self, q: int, m: int):
        self.q, self.m, self.size = q, m, q**m
        if self.size > 25:
            raise ValueError(f"GF({q}^{m}) is too large for table arithmetic here")
        digits = [self._digits(i) for i in range(self.size)]
        self.add = [[self._index([a + b for a, b in zip(x, y)]) for y in digits] for x in digits]
        self.neg = [self._index([-a for a in x]) for x in digits]
        for tail in itertools.product(range(q), repeat=m):
            mul = [[self._index(self._times(x, y, tail)) for y in digits] for x in digits]
            if all(mul[a][b] for a in range(1, self.size) for b in range(1, self.size)):
                break
        self.mul = mul
        self.inv = [0] + [row.index(1) for row in mul[1:]]

    def _digits(self, i: int) -> list[int]:
        return [i // self.q**j % self.q for j in range(self.m)]

    def _index(self, digits) -> int:
        return sum(d % self.q * self.q**j for j, d in enumerate(digits))

    def _times(self, x, y, tail) -> list[int]:
        """x * y reduced by u^m = -sum(tail[j] u^j)."""
        prod = [0] * (2 * self.m - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for top in range(2 * self.m - 2, self.m - 1, -1):
            for j, c in enumerate(tail):
                prod[top - self.m + j] -= prod[top] * c
        return prod[: self.m]

    def rank(self, rows) -> int:
        """Rank of a matrix of elements, by Gaussian elimination with row swaps."""
        rows = [list(row) for row in rows]
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = self.inv[rows[rank][col]]
            top = [self.mul[inv][v] for v in rows[rank]]
            for i in range(rank + 1, len(rows)):
                c = self.neg[rows[i][col]]
                if c:
                    rows[i] = [self.add[v][self.mul[c][t]] for v, t in zip(rows[i], top)]
            rank += 1
        return rank


def _product_rows(form: list[int], degree: int) -> list[list[int]]:
    """x^(degree - i) y^i * form for i = 0..degree, in the monomials of degree deg form + degree."""
    return [[0] * i + form + [0] * (degree - i) for i in range(degree + 1)]


def _coprime(field: ExtensionField, f1: list[int], f2: list[int]) -> bool:
    """Whether two forms share no zero on P^1 over the closure; f2 = [] has no slot (is 0).

    The forms of degrees d1 and d2 share none exactly when their Sylvester
    matrix, the products of f1 with the forms of degree d2 - 1 stacked on
    those of f2 with the forms of degree d1 - 1, has full rank d1 + d2.
    """
    if not f2:
        return len(f1) == 1
    rows = _product_rows(f1, len(f2) - 2) + _product_rows(f2, len(f1) - 2)
    return field.rank(rows) == len(f1) + len(f2) - 2


def sheaf_side_verdict(inst, alpha, m: int) -> tuple[bool, bool, Fraction | None]:
    """(stable, semistable, steepest violating slope) of a rank-2 pair over GF(q^m).

    Starts from the subsheaves, not the section subspaces.  A proper
    subobject (F, W) of (E, V) has W in V ∩ H^0(F), and W = V ∩ H^0(F) is
    the steepest for each F.  For n = 2:

    * F = E with W a proper subspace has slope (d + alpha w) / 2, which
      reaches mu = (d + alpha k) / 2 only at alpha = 0, and never exceeds it.
    * A rank-2 F other than E has deg F < d and slope below mu.
    * A line subsheaf is the image of a map f = (f1, f2): O(b) -> E, with f_i
      of degree a_i - b, up to a scalar, saturated when f1 and f2 share no
      zero on P^1.  Its W = V ∩ H^0(O(b)) f has dimension k + b + 1 less the
      rank of the k sections stacked on the b + 1 products x^(b-i) y^i f.
      With d >= 0, b < 0 gives W = 0 and slope b < mu, so 0 <= b <= a_1; a b
      with b + alpha min(k, b + 1) < mu cannot reach mu and is skipped.
    """
    if inst.n != 2 or inst.d < 0:
        raise ValueError("the sheaf-side oracle covers rank 2 and degree >= 0 only")
    alpha = Fraction(alpha)
    field = ExtensionField(inst.q, m)
    (a1, a2), d, k = inst.splitting.degrees, inst.d, inst.k
    mu = Fraction(d, 2) + alpha * Fraction(k, 2)
    sections = [[c for comp in sec for c in comp] for sec in padded_sections(inst)]
    slopes = [mu] if alpha == 0 and k else []
    for b in range(a1 + 1):
        if b + alpha * min(k, b + 1) < mu:
            continue
        split = a1 - b + 1
        for f in _normalized_vectors(field.size, split + max(0, a2 - b + 1)):
            f1, f2 = list(f[:split]), list(f[split:])
            if not _coprime(field, f1, f2):
                continue
            second = _product_rows(f2, b) if f2 else [[0] * (a2 + 1)] * (b + 1)
            images = [row + more for row, more in zip(_product_rows(f1, b), second)]
            w = k + b + 1 - field.rank(sections + images)
            if b + alpha * w >= mu:
                slopes.append(b + alpha * w)
    return not slopes, all(s <= mu for s in slopes), max(slopes, default=None)


def _normalized_vectors(size: int, length: int):
    """Nonzero vectors over a field of this size whose first nonzero entry is 1."""
    for lead in range(length):
        for tail in itertools.product(range(size), repeat=length - lead - 1):
            yield (0,) * lead + (1,) + tail


# -- counts --------------------------------------------------------------------


def _gaussian_binomial(m: int, r: int, q: int) -> int:
    """#Gr(r, m)(F_q), the number of r-dimensional subspaces of F_q^m; 0 when r > m."""
    if not 0 <= r <= m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def large_alpha_count(n: int, d: int, q: int) -> list[int]:
    """The closed-form F_q-point count of the (n, d, n + 1) moduli past every critical weight.

    Term ℓ is b(d - ℓ) c(ℓ), for ℓ = 0, ..., d - n, in the weighting where a
    pair of type E counts (q - 1) / |Aut E(F_q)|, so a pair whose only
    automorphisms are scalars counts once:

    * b(m) = G(m + 1) - (q + 1) G(m) + q G(m - 1), with G(j) = #Gr(n + 1, j),
      counts the base-point-free (n + 1)-planes W in H^0(O(m)).  Every
      (n + 1)-plane of H^0(O(m)) is s_D W' for its base divisor D and a
      base-point-free W' in H^0(O(m - deg D)); the effective divisors of
      degree j number [t^j] Z(t), Z(t) = 1 / ((1 - t)(1 - q t)), so b is G
      convolved with 1 / Z(t) = 1 - (q + 1) t + q t^2.
    * c(ℓ) = [t^ℓ] Z(t) Z(q t) ... Z(q^(n-1) t) counts the subsheaves of
      colength ℓ of a rank-n bundle on P^1, whatever the bundle (the
      F_q-points of its Quot scheme of length-ℓ quotients).

    The bijection behind term 0: a pair (E, V) whose n + 1 sections generate
    E, with H^0(E*) = 0, has a line kernel N = O(-d) in 0 -> N -> V ⊗ O -> E
    -> 0.  Its dual V* ⊗ O -> O(d) maps V* onto a base-point-free
    (n + 1)-plane W of H^0(O(d)), injectively because H^0(E*) = 0; W is the
    span of the n x n minors of the section matrix.  Back, W ⊗ O -> O(d) is
    onto with kernel K, and (K*, W*) is a generated pair with H^0(K) = 0.
    Term ℓ >= 1: the sections of a pair that does not generate generate a
    subsheaf E' of E of full rank and colength ℓ, with (E', V) generated of
    degree d - ℓ.  So such a pair is a generated pair of degree d - ℓ
    (b(d - ℓ) of them) with a colength-ℓ enlargement E of E', and the
    enlargements are dual to the colength-ℓ subsheaves E* of E'* (c(ℓ) of
    them).  That every such pair is stable at large weight, and no other pair
    is, is observed by the brute count of the tests, not proved here.
    """
    def grass(j: int) -> int:
        return _gaussian_binomial(j, n + 1, q)

    def b(m: int) -> int:
        return grass(m + 1) - (q + 1) * grass(m) + q * grass(m - 1)

    top = d - n
    # the power series Z(q^i t) up to t^top, multiplied for i = 0, ..., n - 1
    series = [1] + [0] * top
    for i in range(n):
        factor = [sum(q**s for s in range(j + 1)) * q ** (i * j) for j in range(top + 1)]
        series = [sum(series[s] * factor[j - s] for s in range(j + 1)) for j in range(top + 1)]
    return [b(d - ell) * series[ell] for ell in range(top + 1)]
