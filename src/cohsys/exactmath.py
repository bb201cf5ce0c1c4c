"""Exact arithmetic foundations: prime fields, binary forms, dense matrices.

Conventions used throughout the package:

* Scalars over F_q are plain integers in [0, q); a ``PrimeField`` carries the
  modulus.  q must be prime (validated once).
* A matrix of binary forms is one int64 array of residues of shape
  (rows, cols, m + 1) that travels with its degree profile: entry (i, j) is
  a form of degree row_degrees[i] + col_degrees[j], and [i, j, u] holds its
  coefficient of x**(deg - u) * y**u (big-endian in x).  Every slot past an
  entry's degree is zero, so an entry of negative degree is the zero form,
  and m is at least the largest degree.  ``check_profile`` is the one check
  of that layout.  A form's values at (1 : 0), (0 : 1) and (1 : 1) are its
  slot 0, its slot at its degree and their sum (``point_values``), and the
  power of y dividing it is its count of leading zero slots.  A single form,
  such as a determinant, is its tuple of coefficients, () for zero.
* Rationals are ``fractions.Fraction``: exact, always in lowest terms.

Matrix ranks are computed by exact Gaussian elimination with first-nonzero
pivoting: the pivot of a column is the first row that is nonzero there.  Over
an exact field there is no stability concern, and the pivot rule keeps runs
reproducible.  ``FieldMatrix.rank`` reduces a matrix of at most
``SMALL_RANK_ENTRIES`` entries on Python ints, each pivot row scaled by its
inverse, and ranks a larger one as a stack of one; ``left_kernel`` runs
that elimination on X extended by the identity.  ``stacked_rank`` ranks a
whole stack of matrices of one shape, which its callers build with
``matmul_mod`` (one int64 matrix product per chunk of terms), in one
numpy elimination that moves no row: each pivot row clears its column and is
zeroed with it.  Callers size their stacks by entries, not by matrix count:
``stack_size`` gives how many matrices of a shape fit the budget of
``STACK_CELLS`` entries, so one stacked elimination holds at most that many
entries or one matrix, whichever is larger.  It steps over the shorter side
of the matrices and reduces mod q lazily, tracking a bound on how far its
entries have grown so that every product stays exact in int64.  Over F_2 it
packs each row into uint64 words, one bit per column (``pack_bits``), and
eliminates with the same pivot rule by XOR (``packed_rank``), the dense GF(2)
technique of M4RI (Albrecht, Bard and Hart, ACM TOMS 2010).
Matrices of binary forms come with the degree profile their caller states.
Their generic ranks and determinants come from one fraction-free elimination
over ZZ, of the entries' values at t = y/x = 2**B (Kronecker substitution),
whose pivots are the values nonzero mod q as polynomials; a generic rank
skips it when the values at (1 : 0), (0 : 1) or (1 : 1) have full rank.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime field F_q; the context object shared by scalars, forms, matrices."""

    q: int

    def __post_init__(self) -> None:
        if self.q >= 2**31:
            # int64 row operations hold products of two residues; checked
            # first so that a huge modulus never reaches trial division
            raise ValueError("modulus too large for exact int64 elimination")
        if not _is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    def __repr__(self) -> str:
        return f"F_{self.q}"


@dataclass(eq=False)
class FieldMatrix:
    """Dense matrix over F_q backed by an int64 array of reduced residues."""

    field: PrimeField
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.data = arr % self.field.q

    def rank(self) -> int:
        """Rank over F_q.

        A matrix of at most ``SMALL_RANK_ENTRIES`` entries is reduced on Python
        ints by ``_small_rank``.  A larger one, where numpy's fixed cost per
        step no longer dominates, is ranked as a stack of one by ``stacked_rank``.
        """
        if self.data.size > SMALL_RANK_ENTRIES:
            return int(stacked_rank(self.field, self.data[None])[0])
        return _small_rank(self.data.tolist(), self.field.q)[0]


# ``FieldMatrix.rank`` reduces a matrix of at most this many entries on Python
# ints.  Against a column-major stack of one, the Python loop took a fifth of
# the time at 36 entries or fewer, won on all 49 distinct matrices of 145 to
# 288 entries and 12 of 13 of 289 to 432, and lost on 13 of 14 above: the
# lone twist and pencil matrices of the verify-k2 and pencil-delta workloads,
# seeds 1 to 4, over F_101 (2 CPUs, Python 3.11.7, numpy 2.4.6).
SMALL_RANK_ENTRIES = 432


def _small_rank(rows: list[list[int]], q: int, keep: int = 0) -> tuple[int, list[list[int]]]:
    """Rank of a matrix of residues but its last keep columns, and the rows left.

    The rows are lists of Python ints, consumed.  Each step takes the first
    column left.  Its pivot is the first row that is nonzero there: that row
    is removed and scaled by the inverse of its entry, and every other row
    with a nonzero entry there subtracts that multiple of it.  Then every
    row drops the column.
    """
    rank = 0
    while rows and len(rows[0]) > keep:
        for i, row in enumerate(rows):
            if row[0]:
                top = rows.pop(i)
                inv = pow(top[0], -1, q)
                top = [v * inv % q for v in top[1:]]
                rank += 1
                break
        for n, row in enumerate(rows):
            lead = row.pop(0)
            if lead:  # every lead is zero in a column with no pivot
                rows[n] = [(v - lead * t) % q for v, t in zip(row, top)]
    return rank, rows


def left_kernel(rows: list[list[int]], q: int) -> list[list[int]]:
    """A basis of {c : c X = 0} for a k x n matrix X of residues, as lists of Python ints.

    ``_small_rank`` clears the n columns of X extended by the identity; the
    k - rank X rows left hold independent c, zero on X.
    """
    k = len(rows)
    extended = [row + [int(i == l) for i in range(k)] for l, row in enumerate(rows)]
    return _small_rank(extended, q, k)[1]


# Stacked callers rank their matrices at most this many entries at a time,
# which bounds the memory one stacked elimination holds: small matrices fill
# one stack, and a matrix larger than the budget is ranked on its own.
STACK_CELLS = 2**16


def stack_size(cells: int) -> int:
    """How many matrices of ``cells`` entries each one stacked elimination takes."""
    return max(1, STACK_CELLS // max(1, cells))

# Enumerations that visit every subspace of a vector space over F_q (the
# subspaces of F_q^k for candidates, the q + 1 lines of F_q^2 for a pencil's
# rational points) refuse to visit more than this many, and an instance whose
# h0(E) exceeds it is refused outright: each section is padded to h0(E)
# coefficients, so a short instance file with one summand of huge degree would
# cost time and memory linear in that degree.  The limit has no override.
COST_GUARD_MAX_SUBSPACES = 2_000_000


def stacked_combination(bases: np.ndarray, mats: np.ndarray, q: int) -> np.ndarray:
    """sum over l of bases[..., l] * mats[l], mod q, for a stack of bases.

    mats holds residues and the bases are reduced on entry: one ``matmul_mod``."""
    k = len(mats)
    lead, tail = np.shape(bases)[:-1], np.shape(mats)[1:]
    b = np.remainder(np.asarray(bases, dtype=np.int64), q).reshape(math.prod(lead), k)
    m = np.reshape(mats, (k, math.prod(tail)))
    return matmul_mod(b, m, q).reshape(lead + tail)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q for int64 residues, stacks broadcast as by ``np.matmul``.

    A term is at most (q - 1)**2.  The sum is one product per chunk of terms,
    each chunk as long as its sum stays below 2**63: all terms for small q,
    two at q = 2**31 - 1.  Each chunk's product is reduced before it is added.
    """
    chunk = (2**63 - 1) // (q - 1) ** 2
    out = a[..., :chunk] @ b[..., :chunk, :] % q
    for start in range(chunk, a.shape[-1], chunk):
        out += a[..., start : start + chunk] @ b[..., start : start + chunk, :] % q
        out %= q
    return out


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
# 2**c for c < 64, as int64: bit 63 is the sign bit
_BIT_WEIGHTS = (np.uint64(1) << _BIT_SHIFTS).view(np.int64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries packed along the last axis into uint64 words.

    Column c becomes bit c % 64 of word c // 64, and the last word is padded
    with zero bits, so a row of any width takes as many words as it needs.
    A word is the product of its 64 entries with the powers of two: distinct
    powers never carry, and the one of weight -2**63 leaves the sum inside
    int64, so the product is exact.  Entries other than 0 and 1 would carry:
    callers reduce mod 2 first.
    """
    *lead, cols = np.shape(bits)
    out = np.empty((*lead, -(-cols // 64)), dtype=np.int64)
    for word in range(out.shape[-1]):
        chunk = bits[..., 64 * word : 64 * word + 64]
        out[..., word] = chunk @ _BIT_WEIGHTS[: chunk.shape[-1]]
    return out.view(np.uint64)


def unpack_bits(words: np.ndarray, cols: int) -> np.ndarray:
    """The first cols columns of rows that ``pack_bits`` packed, as 0/1 entries."""
    bits = (words[..., None] >> _BIT_SHIFTS) & np.uint64(1)
    return bits.reshape(*words.shape[:-1], 64 * words.shape[-1])[..., :cols].astype(np.int64)


def packed_rank(words: np.ndarray) -> np.ndarray:
    """Ranks over F_2 of a stack of bit-row matrices from ``pack_bits``, shape (N, rows, words).

    The elimination of ``stacked_rank`` with XOR as its row operation.  In
    each column every matrix takes its first row that is nonzero there as its
    pivot, and every row with a 1 there, the pivot row included, is XORed
    with the pivot row.  That clears the column and zeroes the pivot row, so
    no row moves.  The words left of the column's word are zero in every row
    by then, so only the rest are updated.  A column that is zero in every
    row of every matrix stays zero under XOR, so it is skipped; so are the
    padding bits.
    """
    a = np.array(words, dtype=np.uint64)
    count, nrows, nwords = a.shape
    rank = np.zeros(count, dtype=np.int64)
    if not (count and nrows and nwords):
        return rank
    present = np.bitwise_or.reduce(a, axis=(0, 1))
    cols = np.flatnonzero(unpack_bits(present, 64 * nwords)).tolist()
    mats = np.arange(count)
    for step, col in enumerate(cols):
        word = col >> 6
        column = (a[:, :, word] >> (col & 63)) & 1
        nonzero = column != 0
        piv = nonzero.argmax(axis=1)
        has = nonzero[mats, piv]
        if not has.any():
            continue
        rank += has
        if step + 1 == len(cols):
            break
        rest = a[:, :, word:]
        # a matrix without a pivot here has a zero column: nothing is XORed
        rest ^= column[:, :, None] * rest[mats, piv][:, None, :]
    return rank


def stacked_rank(field: PrimeField, stack: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices over F_q, shape (N, rows, cols), in one elimination.

    Each column takes one step, so a stack with more columns than rows is
    transposed first: rank does not change under transposition.  In each
    column every matrix takes its first row that is nonzero there as its
    pivot, with value p; a matrix with no such row takes p = 1.  Every row,
    the pivot row included, becomes p * row - row[col] * pivot_row.  That
    needs no inverse, clears column col and zeroes the pivot row, so no row
    moves and a used pivot row is never picked again.  A matrix's rank is the
    number of columns in which it had a pivot.  The elimination works on its
    own array of shape (cols, N, rows), so the columns right of col, the only
    ones read again, are one contiguous block, which each step alone updates.

    Reduction mod q is lazy.  A stack of residues, as every program caller
    passes, is copied into that array, several times cheaper than a
    remainder; any other is reduced.  Each step reduces its pivot column, so
    p and row[col] are residues below q, and takes a bound B on the absolute
    value of the entries to 2 q B.  The block left is reduced, and B reset to
    q - 1, only when 2 q B would reach 2**62, so every product and difference
    stays exact in int64.  For q near 2**31 that is every step.

    For q = 2 the rows are packed into bit words and ranked by
    ``packed_rank``: the same pivots, with one XOR per row and word in place
    of a multiply and a subtraction per entry.
    """
    q = field.q
    if np.ndim(stack) != 3:
        raise ValueError("a stack of matrices must be 3-dimensional")
    a = np.asarray(stack, dtype=np.int64)
    count, nrows, ncols = a.shape
    rank = np.zeros(count, dtype=np.int64)
    if not (count and nrows and ncols):
        return rank
    if q == 2:
        return packed_rank(pack_bits(a % 2))
    if ncols > nrows:
        a, ncols = a.transpose(0, 2, 1), nrows
    a = a.transpose(2, 0, 1)
    a = np.array(a, order="C") if a.min() >= 0 and a.max() < q else np.remainder(a, q, order="C")
    product = np.empty_like(a[1:])  # one buffer for every step's pivot_row x column
    mats = np.arange(count)
    bound = q - 1
    for col in range(ncols):
        column = np.remainder(a[col], q)
        piv = (column != 0).argmax(axis=1)
        p = column[mats, piv]
        has = p != 0
        if not has.any():
            continue
        rank += has
        if col + 1 == ncols:
            break
        rest = a[col + 1 :]
        if 2 * q * bound >= 2**62:
            np.remainder(rest, q, out=rest)
            bound = q - 1
        pivot_row = rest[:, mats, piv]
        # p = 1 leaves a matrix without a pivot here unchanged: its column is zero
        rest *= (p + ~has)[:, None]
        rest -= np.multiply(pivot_row[:, :, None], column, out=product[col:])
        bound *= 2 * q
    return rank


def multiplication_matrix(f: Sequence[int], j: int) -> np.ndarray:
    """Matrix of multiplication-by-f from forms of degree j to degree j + deg f.

    f is one entry's coefficient vector, of length deg f + 1, in residues.
    Bases are the monomials ordered big-endian in x (index i of degree-e forms
    is x**(e-i) y**i).  An empty vector has no degree, hence no target shape.
    The matrix is a plain int64 array whose entries are f's coefficients.
    """
    if not len(f):
        raise ValueError("an empty coefficient vector has no degree to fix the target shape")
    cols = max(0, j + 1)
    rows = max(0, j + len(f))
    data = np.zeros((rows, cols), dtype=np.int64)
    if cols and rows:
        for u, cu in enumerate(f):
            if cu:
                np.fill_diagonal(data[u : u + cols, :], cu)
    return data


# -- polynomials over F_q as big-endian coefficient lists --------------------
#
# A form's coefficient tuple, read as f(t, 1), is a big-endian polynomial in t
# whose leading zeros count the power of y dividing f.


def _poly_divmod(a: Sequence[int], b: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b; a is reduced mod q and b[0] != 0."""
    rem = list(a)
    inv = pow(b[0], q - 2, q)
    quot = []
    for i in range(len(rem) - len(b) + 1):
        c = rem[i] * inv % q
        quot.append(c)
        if c:
            for j in range(1, len(b)):
                rem[i + j] = (rem[i + j] - c * b[j]) % q
    return quot, rem[len(quot) :]


def _leading_zeros(p: Sequence[int]) -> int:
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return i


def vanishing_divisor_degree(forms: Iterable[Sequence[int]], q: int) -> int:
    """Degree of the common vanishing divisor of the forms, over the closure.

    Each form is its coefficient tuple over F_q.  Equals the degree of their
    homogeneous gcd: the common power of y plus the degree of the gcd of the
    polynomials f(t, 1).  Zero forms are ignored; an all-zero input has no
    well-defined divisor.  Reading stops at the answer 0.
    """
    y_part: int | None = None
    g: Sequence[int] = ()
    for f in forms:
        v = _leading_zeros(f)
        if v == len(f):
            continue
        y_part = v if y_part is None else min(y_part, v)
        a, b = f[v:], g
        while b:
            r = _poly_divmod(a, b, q)[1]
            a, b = b, r[_leading_zeros(r) :]
        g = a
        if len(g) == 1 and y_part == 0:
            return 0
    if y_part is None:
        raise ValueError("indeterminate divisor: all forms are zero")
    return y_part + len(g) - 1


def _slot_degrees(row_degrees: Sequence[int], col_degrees: Sequence[int]) -> np.ndarray:
    """deg entry(i, j) = row_degrees[i] + col_degrees[j], as an int64 (rows, cols) array."""
    rows, cols = np.array(row_degrees, dtype=np.int64), np.array(col_degrees, dtype=np.int64)
    return np.add.outer(rows, cols)


def check_profile(
    coeffs: np.ndarray, row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> None:
    """Raise unless coeffs is a form matrix with the stated degree profile.

    The shape must be (len(row_degrees), len(col_degrees), m + 1) with a slot
    for every degree, and every slot past an entry's degree must be zero,
    every slot of an entry of negative degree included.
    """
    degrees = _slot_degrees(row_degrees, col_degrees)
    if (
        np.ndim(coeffs) != 3
        or coeffs.shape[:2] != degrees.shape
        or (degrees.size and coeffs.shape[2] <= max(0, degrees.max()))
    ):
        raise ValueError("matrix shape does not match its degree profile")
    past = (coeffs != 0) & (np.arange(coeffs.shape[2]) > degrees[:, :, None])
    if past.any():
        i, j, u = np.argwhere(past)[0].tolist()
        raise ValueError(
            f"entry ({i},{j}) has a coefficient in slot {u}, past its degree {degrees[i, j]}"
        )


def _nonzero_mod(value: int, q: int, bits: int) -> bool:
    """Whether a polynomial over ZZ is nonzero mod q, given its value at t = 2**bits.

    Its coefficients, which must lie in [-2**(bits-1), 2**(bits-1)), are the
    value's balanced base-2**bits digits, read lowest first until one is
    nonzero mod q.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    while value:
        digit = ((value + half) & mask) - half
        if digit % q:
            return True
        value = (value - digit) >> bits
    return False


def _bareiss(
    coeffs: np.ndarray, row_degrees: Sequence[int], col_degrees: Sequence[int], q: int
) -> tuple[int, int, int]:
    """Rank over F_q(t) of a form matrix, its signed last pivot and the digit width B.

    Kronecker substitution: each entry, lifted to coefficients in [0, q) as a
    polynomial in t = y/x, is evaluated at t = 2**B, a ring homomorphism
    ZZ[t] -> ZZ.  The values pass int64, so they are Python ints, read off
    the array's ``tolist``.  Bareiss's fraction-free elimination (Bareiss
    1968) on the values keeps every entry the value of a minor of the lifted
    matrix M (Sylvester's identity over ZZ[t]).  The s! Leibniz terms of a
    minor of size at most s = min(rows, cols) have coefficients at most
    (m + 1)**(s - 1) * (q - 1)**s, m the largest slot degree; B puts s! times
    that below 2**(B - 1), so a value's balanced base-2**B digits are its
    minor's coefficients.  Mod q, a homomorphism ZZ[t] -> F_q[t], they are
    the minor over F_q.  The caller checks the profile.

    A column's pivot is the first row whose minor is nonzero mod q.  That row
    is swapped up, every row below it becomes (p*a - lead*b) / previous pivot,
    exactly, and each row drops the column; a column with no pivot is
    dropped.  The minors, and so the pivots, are those of the same
    elimination over F_q[t]: their number is the rank, and the last pivot,
    signed by the swaps, is the value of the minor on the pivot rows and
    columns.
    """
    size = min(len(row_degrees), len(col_degrees))
    terms = max(1, max(row_degrees, default=0) + max(col_degrees, default=0) + 1)
    bits = (math.factorial(size) * terms ** max(0, size - 1) * (q - 1) ** size).bit_length() + 1
    places = range(0, bits * terms, bits)
    # the places cover every degree, and each slot past an entry's degree is zero
    rows = [[sum(map(operator.lshift, f, places)) for f in row] for row in coeffs.tolist()]
    rank, sign, prev = 0, 1, 1
    while rows and rows[0]:
        for piv, row in enumerate(rows):
            # a value nonzero mod q proves it; only a value divisible by q is decoded
            if row[0] % q or _nonzero_mod(row[0], q, bits):
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            sign = -sign
        p, rest = rows[0][0], rows[0][1:]
        rows = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], rest)] for row in rows[1:]]
        prev = p
        rank += 1
    return rank, sign * prev, bits


def point_values(
    coeffs: np.ndarray, row_degrees: Sequence[int], col_degrees: Sequence[int], q: int
) -> np.ndarray:
    """The values of a form matrix at (1 : 0), (0 : 1) and (1 : 1), shape (3, rows, cols).

    Three reads of the array: slot 0, the slot at each entry's degree, and
    the sum of the slots mod q.  An entry of negative degree reads 0 in each.
    """
    degrees = _slot_degrees(row_degrees, col_degrees)
    rows, cols = np.indices(degrees.shape, sparse=True)
    last = coeffs[rows, cols, np.maximum(degrees, 0)]
    return np.array([coeffs[:, :, 0], last, coeffs.sum(axis=2) % q])


def generic_rank(
    coeffs: np.ndarray, field: PrimeField, row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> int:
    """Rank over the function field F_q(t) of a form matrix with the stated profile.

    The profile keeps every minor a binary form; ``check_profile`` enforces
    it.  The values at a point have rank at most the generic rank, itself at
    most min(rows, cols).  So values of full rank at one of the three points
    of ``point_values``, ranked in turn by ``FieldMatrix.rank``, settle it;
    the integer elimination of ``_bareiss`` decides the rest.
    """
    check_profile(coeffs, row_degrees, col_degrees)
    full = min(len(row_degrees), len(col_degrees))
    if not full:
        return 0
    values = point_values(coeffs, row_degrees, col_degrees, field.q)
    if any(FieldMatrix(field, v).rank() == full for v in values):
        return full
    return _bareiss(coeffs, row_degrees, col_degrees, field.q)[0]


def form_determinant(
    coeffs: np.ndarray, field: PrimeField, row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> tuple[int, ...]:
    """Coefficients of the determinant of a square form matrix; () when it is zero.

    One ``_bareiss`` elimination: below full rank the determinant is zero.
    At full rank the signed last pivot is det(M)(2**B) for the lifted matrix
    M, whose balanced base-2**B digits are the D + 1 coefficients of det(M),
    D = sum(row_degrees) + sum(col_degrees); mod q they are those of the
    determinant over F_q.  A value past D + 1 digits raises RuntimeError: the
    digit bound would be wrong.  The caller checks the profile, once for a
    matrix whose minors it slices.
    """
    n, q = len(row_degrees), field.q
    if len(col_degrees) != n:
        raise ValueError("determinant needs a square matrix")
    rank, det, bits = _bareiss(coeffs, row_degrees, col_degrees, q)
    if rank < n:
        return ()
    size = max(0, sum(row_degrees) + sum(col_degrees) + 1)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    det += half * ((1 << bits * size) - 1) // mask  # half in every digit: each now in [0, 2**B)
    if not 0 <= det < 1 << bits * size:
        raise RuntimeError("determinant exceeds its digit bound")
    return tuple((((det >> bits * i) & mask) - half) % q for i in range(size))


def minor_divisor_degree(
    coeffs: np.ndarray,
    field: PrimeField,
    row_degrees: Sequence[int],
    col_degrees: Sequence[int],
    size: int,
) -> int:
    """``vanishing_divisor_degree`` of the size x size minors of a form matrix.

    The minors take the row sets, then the column sets, in
    ``itertools.combinations`` order.  Each is an ``np.ix_`` slice whose
    ``form_determinant`` is taken only when the gcd read asks for it, so the
    read stops at a constant gcd.  The caller checks the profile, once for
    the whole matrix.
    """
    minors = (
        form_determinant(
            coeffs[np.ix_(rows, cols)],
            field,
            [row_degrees[i] for i in rows],
            [col_degrees[j] for j in cols],
        )
        for rows in itertools.combinations(range(len(row_degrees)), size)
        for cols in itertools.combinations(range(len(col_degrees)), size)
    )
    return vanishing_divisor_degree(minors, field.q)
