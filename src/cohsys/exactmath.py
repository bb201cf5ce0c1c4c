"""Exact arithmetic foundations: prime fields, binary forms, dense matrices.

Conventions used throughout the package:

* Scalars over F_q are plain integers in [0, q); a ``PrimeField`` carries the
  modulus.  q must be prime (validated once).
* A binary form of degree d is a homogeneous polynomial in (x, y); its
  coefficient tuple has length d + 1 and index i holds the coefficient of
  x**(d-i) * y**i (big-endian in x).  The zero form is the empty tuple,
  reported as degree -1, so matrices of forms can keep fixed per-slot degree
  profiles while allowing zero entries.  A form carries data only: its value
  at (1 : 0) is its first coefficient, at (0 : 1) its last, and the power of
  y dividing it is its count of leading zeros.
* Rationals are ``fractions.Fraction``: exact, always in lowest terms.

Matrix ranks are computed by exact Gaussian elimination with first-nonzero
pivoting: the pivot of a column is the first row that is nonzero there.  Over
an exact field there is no stability concern, and the pivot rule keeps runs
reproducible.  ``FieldMatrix.rank`` reduces a matrix of at most
``SMALL_RANK_ENTRIES`` entries on Python ints, each pivot row scaled by its
inverse, and ranks a larger one as a stack of one.  ``stacked_rank`` ranks a
whole stack of matrices of one shape, which its callers build with
``stacked_combination`` (one int64 matrix product per chunk of terms), in one
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
Matrices of binary forms, with the degree profile their caller states, go
through one fraction-free elimination over F_q[x, y], which gives both their
generic rank and their determinant; a generic rank needs none when the
leading coefficients already have full rank.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous polynomial in (x, y) over a prime field.

    ``coeffs[i]`` multiplies x**(d-i) * y**i.  The all-zero coefficient vector
    collapses to the canonical zero form ``()`` of degree -1.  A form carries
    data only: products of forms happen inside the eliminations, sums of
    sections in ``bundles.combine_sections``, and its callers read values and
    powers of y straight off the coefficients.
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.field.q
        # plain ints: numpy integers would wrap in the products of the eliminations
        reduced = tuple(operator.index(c) % q for c in self.coeffs)
        if all(c == 0 for c in reduced):
            reduced = ()
        object.__setattr__(self, "coeffs", reduced)

    @classmethod
    def zero(cls, field: PrimeField) -> "BinaryForm":
        return cls(field, ())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


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

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "FieldMatrix":
        if rows:
            return cls(field, np.array(rows, dtype=np.int64))
        return cls(field, np.zeros((0, 0), dtype=np.int64))

    def rank(self) -> int:
        """Rank over F_q.

        A matrix of at most ``SMALL_RANK_ENTRIES`` entries is reduced on Python
        ints by ``_small_rank``.  A larger one, where numpy's fixed cost per
        step no longer dominates, is ranked as a stack of one by ``stacked_rank``.
        """
        if self.data.size > SMALL_RANK_ENTRIES:
            return int(stacked_rank(self.field, self.data[None])[0])
        return _small_rank(self.data.tolist(), self.field.q)


# ``FieldMatrix.rank`` reduces a matrix of at most this many entries on Python
# ints.  Against a stack of one, the Python loop took a quarter of the time at
# 36 entries or fewer, won on every matrix of 145 to 432 entries, tied from
# 433 to 576 and lost above: measured on the lone twist and pencil matrices
# of k = 2 campaigns and delta checks over F_101 (2 CPUs, Python 3.11.7,
# numpy 2.4.6).
SMALL_RANK_ENTRIES = 432


def _small_rank(rows: list[list[int]], q: int) -> int:
    """Rank of a matrix of residues, as lists of Python ints; the lists are consumed.

    Each step takes the first column left.  Its pivot is the first row that
    is nonzero there: that row is removed and scaled by the inverse of its
    entry, and every other row with a nonzero entry there subtracts that
    multiple of it.  Then every row drops the column.
    """
    rank = 0
    while rows and rows[0]:
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
    return rank


# Stacked callers rank their matrices at most this many entries at a time,
# which bounds the memory one stacked elimination holds: small matrices fill
# one stack, and a matrix larger than the budget is ranked on its own.
STACK_CELLS = 2**16


def stack_size(cells: int) -> int:
    """How many matrices of ``cells`` entries each one stacked elimination takes."""
    return max(1, STACK_CELLS // max(1, cells))

# Enumerations that visit every subspace of a vector space over F_q (the
# subspaces of F_q^k for candidates, the q + 1 lines of F_q^2 for a pencil's
# rational points) refuse to visit more than this many unless the caller
# allows it.  An instance whose h0(E) exceeds it is refused outright, with no
# option to allow it: each section is padded to h0(E) coefficients, so a
# short instance file with one summand of huge degree would cost time and
# memory linear in that degree.
COST_GUARD_MAX_SUBSPACES = 2_000_000


def stacked_combination(bases: np.ndarray, mats: np.ndarray, q: int) -> np.ndarray:
    """sum over l of bases[..., l] * mats[l], mod q, for a stack of bases.

    mats holds residues and the bases are reduced on entry, so a term is at
    most (q - 1)**2.  The sum is one int64 matrix product per chunk of terms,
    each chunk as long as its sum stays below 2**63: all k terms for small q,
    two at q = 2**31 - 1.  Each chunk's product is reduced before it is added.
    """
    k = len(mats)
    lead, tail = np.shape(bases)[:-1], np.shape(mats)[1:]
    b = np.remainder(np.asarray(bases, dtype=np.int64), q).reshape(math.prod(lead), k)
    m = np.reshape(mats, (k, math.prod(tail)))
    chunk = (2**63 - 1) // (q - 1) ** 2
    out = b[:, :chunk] @ m[:chunk] % q
    for start in range(chunk, k, chunk):
        out += b[:, start : start + chunk] @ m[start : start + chunk] % q
        out %= q
    return out.reshape(lead + tail)


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
    number of columns in which it had a pivot.  Column col and the ones
    before it are never read again, but the update runs over the whole
    array: one pass over contiguous memory is faster than one over the
    strided columns right of col, and those columns keep within the same
    bound as the rest.

    Reduction mod q is lazy.  The input is copied when its entries are
    residues already, as every program caller's are, and reduced otherwise,
    so it starts at residues either way.  Each step reduces its pivot column,
    so p and row[col] are residues below q, and a step takes a bound B on the
    absolute value of the entries to 2 q B.  The array is reduced, and B
    reset to q - 1, only when 2 q B would reach 2**62, so every product and
    difference stays exact in int64.  For q near 2**31 that is every step.

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
    if a.min() >= 0 and a.max() < q:
        a = np.array(a, order="C")  # residues, from every program caller: a plain copy
    else:
        a = np.remainder(a, q, order="C")
    mats = np.arange(count)
    bound = q - 1
    for col in range(ncols):
        column = np.remainder(a[:, :, col], q)
        piv = (column != 0).argmax(axis=1)
        p = column[mats, piv]
        has = p != 0
        if not has.any():
            continue
        rank += has
        if col + 1 == ncols:
            break
        if 2 * q * bound >= 2**62:
            np.remainder(a, q, out=a)
            bound = q - 1
        pivot_row = a[mats, piv]
        # p = 1 leaves a matrix without a pivot here unchanged: its column is zero
        a *= (p + ~has)[:, None, None]
        a -= column[:, :, None] * pivot_row[:, None, :]
        bound *= 2 * q
    return rank


def multiplication_matrix(f: BinaryForm, j: int) -> np.ndarray:
    """Matrix of multiplication-by-f from forms of degree j to degree j + deg f.

    Bases are the monomials ordered big-endian in x (index i of degree-e forms
    is x**(e-i) y**i).  The zero form has no degree, hence no target shape.
    The matrix is a plain int64 array; its entries are f's coefficients,
    which ``BinaryForm`` keeps reduced, so they are residues already.
    """
    if f.is_zero:
        raise ValueError("the zero form has no degree to fix the target shape")
    cols = max(0, j + 1)
    rows = max(0, j + f.degree + 1)
    data = np.zeros((rows, cols), dtype=np.int64)
    if cols and rows:
        for u, cu in enumerate(f.coeffs):
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


def _poly_mul_sub(
    a: Sequence[int], b: Sequence[int], c: Sequence[int], d: Sequence[int], q: int
) -> list[int]:
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


def _leading_zeros(p: Sequence[int]) -> int:
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return i


def vanishing_divisor_degree(forms: Iterable[BinaryForm]) -> int:
    """Degree of the common vanishing divisor of the forms, over the closure.

    Equals the degree of their homogeneous gcd: the common power of y plus the
    degree of the gcd of the polynomials f(t, 1).  Zero forms are ignored; an
    all-zero input has no well-defined divisor.  Reading stops at the answer 0.
    """
    y_part: int | None = None
    g: Sequence[int] = ()
    for f in forms:
        if f.is_zero:
            continue
        v = _leading_zeros(f.coeffs)
        y_part = v if y_part is None else min(y_part, v)
        a, b = f.coeffs[v:], g
        while b:
            r = _poly_divmod(a, b, f.field.q)[1]
            a, b = b, r[_leading_zeros(r) :]
        g = a
        if len(g) == 1 and y_part == 0:
            return 0
    if y_part is None:
        raise ValueError("indeterminate divisor: all forms are zero")
    return y_part + len(g) - 1


def check_profile(
    entries: Sequence[Sequence[BinaryForm]], row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> None:
    """Raise unless entries is a form matrix with the stated degree profile.

    The shape must be len(row_degrees) x len(col_degrees), and each nonzero
    entry (i, j) must have degree row_degrees[i] + col_degrees[j]; zero
    entries are allowed anywhere.
    """
    if len(entries) != len(row_degrees) or any(len(row) != len(col_degrees) for row in entries):
        raise ValueError("matrix shape does not match its degree profile")
    for i, row in enumerate(entries):
        for j, f in enumerate(row):
            slot = row_degrees[i] + col_degrees[j]
            if not f.is_zero and f.degree != slot:
                raise ValueError(f"entry ({i},{j}) has degree {f.degree}, expected {slot}")


def _bareiss(
    entries: Sequence[Sequence[BinaryForm]], row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> tuple[int, Sequence[int], int]:
    """Fraction-free elimination of a form matrix with the stated profile (Bareiss 1968).

    First-nonzero pivoting with column skipping; each step replaces the
    entries below and right of the pivot p by (p*a - b*c) / previous pivot,
    an exact division, so every entry stays a minor of the input and, under
    the degree profile, a binary form.  Returns the rank, the last pivot and
    the sign of the row permutation; for a square matrix of full rank the
    determinant is sign * last pivot.
    """
    check_profile(entries, row_degrees, col_degrees)
    nrows, ncols = len(row_degrees), len(col_degrees)
    if not (nrows and ncols):
        return 0, (1,), 1
    q = entries[0][0].field.q
    rows = [[f.coeffs for f in row] for row in entries]
    rank, sign, prev = 0, 1, (1,)
    for col in range(ncols):
        for piv in range(rank, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[col]
        shift = _leading_zeros(prev)
        divisor = prev[shift:]
        for r in range(rank + 1, nrows):
            row = rows[r]
            lead = row[col]
            for c in range(col + 1, ncols):
                num = _poly_mul_sub(p, row[c], lead, top[c], q)
                if num and rank:  # the first step divides by the constant 1
                    num = _poly_divmod(num[shift:], divisor, q)[0]
                row[c] = num
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, prev, sign


def generic_rank(
    entries: Sequence[Sequence[BinaryForm]], row_degrees: Sequence[int], col_degrees: Sequence[int]
) -> int:
    """Rank over the function field F_q(t) of a form matrix with the stated profile.

    The profile (deg entry(i, j) = row_degrees[i] + col_degrees[j] at nonzero
    entries) keeps every minor a binary form; ``check_profile`` enforces it.
    Under it the leading coefficients are the values at (1 : 0), a matrix
    whose rank is at most the generic rank, itself at most min(rows, cols).
    So leading coefficients of full rank settle it, ranked over F_q by
    ``FieldMatrix.rank``; the Bareiss elimination decides the rest.
    """
    check_profile(entries, row_degrees, col_degrees)
    full = min(len(row_degrees), len(col_degrees))
    if not full:
        return 0
    leads = [[f.coeffs[0] if f.coeffs else 0 for f in row] for row in entries]
    if FieldMatrix.from_rows(entries[0][0].field, leads).rank() == full:
        return full
    return _bareiss(entries, row_degrees, col_degrees)[0]


def form_determinant(
    entries: Sequence[Sequence[BinaryForm]],
    field: PrimeField,
    row_degrees: Sequence[int],
    col_degrees: Sequence[int],
) -> BinaryForm:
    """Determinant of a square form matrix with the stated degree profile."""
    n = len(row_degrees)
    if len(col_degrees) != n:
        raise ValueError("determinant needs a square matrix")
    rank, pivot, sign = _bareiss(entries, row_degrees, col_degrees)
    if rank < n:
        return BinaryForm.zero(field)
    return BinaryForm(field, tuple(pivot) if sign > 0 else tuple(-c for c in pivot))
