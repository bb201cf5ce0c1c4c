"""Split vector bundles on the projective line.

Every bundle here is a direct sum of line bundles O(a_1) >= ... >= O(a_n),
so all invariants reduce to integer bookkeeping on the sorted degree tuple,
plus exact kernel computations for maps given by matrices of binary forms,
each one int64 coefficient array with its degree profile (see ``exactmath``).

A rank-0 splitting type (the empty tuple) stands for the zero bundle; it
shows up as a kernel or quotient even though ambient bundles have rank >= 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exactmath import (
    FieldMatrix,
    PrimeField,
    _bareiss,
    check_profile,
    generic_rank,
    left_kernel,
    matmul_mod,
    minor_divisor_degree,
    multiplication_matrix,
    pack_bits,
    packed_rank,
    point_values,
    stack_size,
    stacked_combination,
    stacked_rank,
)


@dataclass(frozen=True)
class SplittingType:
    """Sorted multiset of line-bundle degrees (a_1 >= ... >= a_n)."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(self.degrees[i] < self.degrees[i + 1] for i in range(len(self.degrees) - 1)):
            raise ValueError("splitting type must be sorted non-increasing")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def dual(self) -> "SplittingType":
        return SplittingType(tuple(-a for a in reversed(self.degrees)))

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]


@dataclass(frozen=True)
class SaturationResult:
    """Numerical invariants of the saturation of a span of sections."""

    rank: int
    degree: int
    quotient_type: SplittingType


def generic_splitting(n: int, d: int) -> SplittingType:
    """The balanced type of rank n and degree d: s copies of a+1, n-s of a."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    a, s = divmod(d, n)
    return SplittingType(tuple([a + 1] * s + [a] * (n - s)))


def cohomology(t: SplittingType, j: int) -> tuple[int, int]:
    """(h0, h1) of the twist t(j); genus-0 line bundle cohomology, summand-wise."""
    h0 = sum(max(0, a + j + 1) for a in t)
    h1 = sum(max(0, -a - j - 1) for a in t)
    return h0, h1


def max_subbundle_degree(t: SplittingType, r: int) -> int:
    """Largest degree of a rank-r subbundle: the r biggest summand degrees."""
    if r < 0 or r > t.rank:
        raise ValueError(f"rank {r} out of range for a rank-{t.rank} bundle")
    return sum(t.degrees[:r])


def _twist_matrix(
    source: SplittingType, target: SplittingType, coeffs: np.ndarray, j: int
) -> np.ndarray:
    """Matrix of the induced map on global sections after twisting by O(j).

    coeffs is the map's form matrix, read as lists once: entry (i, jdx) has
    degree target[i] - source[jdx].
    """
    col_dims = [max(0, s + j + 1) for s in source]
    row_dims = [max(0, t + j + 1) for t in target]
    data = np.zeros((sum(row_dims), sum(col_dims)), dtype=np.int64)
    r0 = 0
    for i, row in enumerate(coeffs.tolist()):
        c0 = 0
        for jdx, entry in enumerate(row):
            f = entry[: max(0, target[i] - source[jdx] + 1)]
            if any(f) and col_dims[jdx] and row_dims[i]:
                block = multiplication_matrix(f, source[jdx] + j)
                data[r0 : r0 + row_dims[i], c0 : c0 + col_dims[jdx]] = block
            c0 += col_dims[jdx]
        r0 += row_dims[i]
    return data


def _twist_kernel_dimension(field: PrimeField, stack: np.ndarray, cols: int) -> np.ndarray:
    """dim ker of each twist matrix in a stack of N matrices with cols columns.

    A uint64 stack holds bit rows over F_2, packed by ``pack_bits``, of shape
    (N, rows, words), which ``packed_rank`` ranks at any N.  An int64 stack
    has shape (N, rows, cols).  A stack of one goes through
    ``FieldMatrix.rank``, which reduces a small matrix on Python ints and
    hands a large one back to ``stacked_rank``; any other goes to
    ``stacked_rank``.
    """
    if stack.dtype == np.uint64:
        return cols - packed_rank(stack)
    if len(stack) == 1:
        return np.array([cols - FieldMatrix(field, stack[0]).rank()])
    return cols - stacked_rank(field, stack)


def _missing_summands(
    rho: int, floor: int, found: int, rest: int, j: int, twist: int, h: int
) -> list[int] | None:
    """The kernel summands a count scan lacks, if h = h(twist) fixes them; else None.

    The scan has probed up to twist j <= twist and found ``found`` of the rho
    summands, each >= -j, which fall short of the floor by rest.
    """
    slack = h - floor - rho * (twist + 1)
    if slack < 0:
        raise RuntimeError("kernel degree bounds fall below its floor; elimination bug")
    u = rho - found
    if slack and u > 1:
        return None
    excess = rest + u * (twist + 1)
    if u == 1 and excess >= 0:
        if rest + slack > -j - 1:
            raise RuntimeError("summand read above the source or a probed twist; elimination bug")
        return [rest + slack]
    if not slack and excess <= 1:
        return [-twist] * excess + [-twist - 1] * (u - excess)
    return None if u else []


def _count_scan(
    source: SplittingType,
    target: SplittingType,
    rhos: Sequence[int],
    probe: Callable[[list[int], int], np.ndarray],
) -> list[list[int]]:
    """Kernel summand degrees of a stack of maps source -> target.

    ``probe(live, j)`` gives h(j), the kernel dimension on global sections at
    twist j, for the maps indexed by ``live``.  The first difference
    c(j) = h(j) - h(j-1) counts the kernel summands of degree >= -j.  Counts
    start at zero at the base twist -max(source) - 1, are monotone, and end
    at the kernel rank rho; the lock-step probes the live maps at each twist
    after the base in turn.

    The image of a map is a rank g = rank(source) - rho subsheaf of the
    target, so its kernel N = O(b_1) + ... + O(b_rho) has deg N >= floor =
    deg(source) - max_subbundle_degree(target, g).  At every twist J,
    h(J) = sum(max(0, b_i + J + 1)) >= deg N + rho * (J + 1), so
    slack = h(J) - floor - rho * (J + 1) >= 0, with equality exactly when
    deg N = floor and every b_i >= -J - 1.  After the lock-step's last twist
    j, the u summands not yet found are each <= -j - 1 and have degree
    >= rest = floor - sum(found) together.  With excess = rest + u(J + 1),
    one h(J) at J >= j settles the map (``_missing_summands``): if u = 1 and
    excess >= 0 the missing summand is rest + slack; if slack = 0 and
    excess <= 1 they are excess copies of -J and the others -J - 1.

    Every map is read at the base twist and after each lock-step probe, at
    J = j.  A lone map with one summand left is probed once, at j* = -rest
    (excess = 1).  Before the lock-step, each map with floor = rho * beta + r,
    r <= 1 and J = -beta - 1 two or more steps past the base twist is probed
    at J (excess = r), one probe per distinct J.  A map left live keeps h(J)
    for the lock-step; its found summands are >= beta + 2 while J lies ahead,
    so j* > J and no map is probed twice at one twist.  slack < 0, a summand
    read above -j - 1, falling counts and a twist past the safe window are
    tripwires only; failing one would signal a bug, not bad input.
    """
    bound = sum(abs(s) for s in source) + sum(abs(t) for t in target) + source.rank
    window_hi = 2 * bound + 2
    j = -max(source.degrees) - 1
    prev_h = [0] * len(rhos)
    floors = {
        rho: source.degree - max_subbundle_degree(target, source.rank - rho)
        for rho in set(rhos)
        if rho > 0
    }
    # at the base twist h = 0 and nothing is found, so the read rests on rho
    # alone; the maps it settles share their rank's list, never extended
    based = {rho: _missing_summands(rho, f, 0, f, j, j, 0) for rho, f in floors.items()}
    degrees = [based.get(rho) or [] for rho in rhos]
    live = [m for m, rho in enumerate(rhos) if rho > 0 and based[rho] is None]
    # floor - sum(found) of each map
    rests = [floors.get(rho, 0) for rho in rhos]
    # J -> the maps read at J = -beta - 1 before the lock-step
    reads: dict[int, list[int]] = {}
    for m in live:
        beta, r = divmod(floors[rhos[m]], rhos[m])
        if r <= 1 and -beta - 1 >= j + 2:
            reads.setdefault(-beta - 1, []).append(m)
    # held[J][m] is h(J) of map m, probed by those reads
    held: dict[int, dict[int, int]] = {}
    while live:
        m, rho = live[0], rhos[live[0]]
        if len(live) == 1 and len(degrees[m]) == rho - 1:
            if -rests[m] > window_hi:
                raise RuntimeError("the kernel degree floor lies outside the safe window")
            (h,) = probe(live, -rests[m]).tolist()
            degrees[m] += _missing_summands(rho, floors[rho], rho - 1, rests[m], j, -rests[m], h)
            break
        if reads:
            for twist, group in reads.items():
                held[twist] = dict(zip(group, probe(group, twist).tolist()))
                for m, h in held[twist].items():
                    f = floors[rhos[m]]
                    degrees[m] = _missing_summands(rhos[m], f, 0, f, j, twist, h) or []
            reads = {}
            live = [m for m in live if not degrees[m]]
            continue
        j += 1
        if j > window_hi:
            raise RuntimeError("kernel probe counts failed to stabilize inside the safe window")
        counts = held.pop(j, None)
        if counts is None:
            hs = probe(live, j).tolist()
        else:
            fresh = [m for m in live if m not in counts]
            if fresh:
                counts.update(zip(fresh, probe(fresh, j).tolist()))
            hs = [counts[m] for m in live]
        still = []
        for m, h in zip(live, hs):
            found = degrees[m]
            new = h - prev_h[m] - len(found)
            if new < 0:
                raise RuntimeError("kernel probe counts are not monotone; elimination bug")
            found += [-j] * new
            rests[m] += j * new
            prev_h[m] = h
            missing = _missing_summands(rhos[m], floors[rhos[m]], len(found), rests[m], j, j, h)
            if missing is None:
                still.append(m)
            else:
                found += missing
        live = still
    return degrees


def kernel_splitting(
    field: PrimeField, source: SplittingType, target: SplittingType, coeffs: np.ndarray
) -> SplittingType:
    """Splitting type of the kernel subbundle of a map given by a form matrix.

    Entry (i, j) must be a form of degree target_i - source_j (or zero).  Its
    rank rho is the source rank less the generic rank over F_q(t).

    A generically onto map with one source summand more than the target has
    a line kernel, read from its maximal minors (Cramer's rule; the graded
    Hilbert-Burch setting).  The minor m_c with column c left out has degree
    deg(target) - deg(source) + source_c, and the signed minors span the
    kernel, so N = O(deg(source) - deg(target) + deg gcd(m_c)).  One
    ``minor_divisor_degree`` call of size rank(target) reads that gcd from
    slices of the checked matrix, made one at a time until it is constant,
    so a generic map takes two.  Every other kernel
    N = O(b_1) + ... + O(b_rho) is recovered by ``_count_scan`` from the
    section counts of its twists.
    """
    cols = [-s for s in source]
    rho = source.rank - generic_rank(coeffs, field, target.degrees, cols)
    if source.rank == 0:
        return SplittingType(())
    if rho == 1 and source.rank == target.rank + 1 >= 2:
        degree = minor_divisor_degree(coeffs, field, target.degrees, cols, target.rank)
        return SplittingType((source.degree - target.degree + degree,))

    def probe(live: list[int], j: int) -> np.ndarray:
        twist = _twist_matrix(source, target, coeffs, j)
        return _twist_kernel_dimension(field, twist[None], twist.shape[1])

    (degrees,) = _count_scan(source, target, [rho], probe)
    return SplittingType(tuple(degrees))


def saturate(field: PrimeField, e: SplittingType, sections: np.ndarray) -> SaturationResult:
    """Invariants of the minimal subbundle whose sections contain the span.

    The w sections are the rows of a (w, n, m + 1) form matrix of profile
    [0] * w, e.  Works through the dual: the kernel N of E* -> O^w (pairing
    against the sections) is saturated, and the annihilator F = (E*/N)* is
    exactly the saturation, of rank n - rk N and degree deg E + deg N, with
    E/F = N*.  Zero sections are ignored.  When the w = n - 1 live sections
    have generic rank n - 1, N is a line bundle, which ``kernel_splitting``
    reads from the (n - 1) x (n - 1) minors of the section matrix with no
    twist probe; the saturation then has the degree of their common divisor.
    """
    check_profile(sections, [0] * len(sections), e.degrees)
    live = sections[sections.any(axis=(1, 2))]
    if not len(live):
        return SaturationResult(0, 0, e)
    return _saturation(e, kernel_splitting(field, *_pairing(e, live)))


def _pairing(
    e: SplittingType, sections: np.ndarray
) -> tuple[SplittingType, SplittingType, np.ndarray]:
    """(E*, O^w, coefficients) of E* -> O^w against w sections: the dual reverses the components."""
    return e.dual(), SplittingType((0,) * len(sections)), sections[:, ::-1]


def _saturation(e: SplittingType, kern: SplittingType) -> SaturationResult:
    """The saturation F with E/F = N*, from the kernel N of the dual pairing."""
    return SaturationResult(
        rank=e.rank - kern.rank,
        degree=e.degree + kern.degree,
        quotient_type=kern.dual(),
    )


class SectionPairing:
    """Saturations of the subspaces W of a section space V, a stack at a time.

    ``saturate`` finds the saturation of W through the kernel of the pairing
    E* -> O^w against the sections of W, probed on global sections of each
    twist j.  That twist matrix is linear in the sections: for W spanned by
    the rows of B V, M_j(W) = (B (x) I_{j+1}) M_j(V).  So M_j(V), the twist
    matrix of the pairing E* -> O^k against all k sections, is built once per
    twist, and a stack of W of one dimension is ranked together, in
    eliminations of at most ``STACK_CELLS`` entries.  Over F_2, M_j(V) is
    packed into bit rows once per twist, and each row block of M_j(W) is the
    XOR of the packed blocks its row of B picks, so no int64 stack is built.
    A span's values B X at a point have rank w - m + rank(L - L[:, piv] B),
    L the m x k left kernel of the sections' values X there, for B in reduced
    row echelon form with pivot columns piv, as every basis must be.
    """

    def __init__(self, field: PrimeField, e: SplittingType, sections: np.ndarray) -> None:
        """sections is the (k, n, m + 1) form matrix of the k sections, of profile [0] * k, e."""
        self.field = field
        self.e = e
        self.sections = sections
        self._pairings: dict[int, np.ndarray] = {}

    @functools.cached_property
    def _point_values(self) -> np.ndarray:
        """Shape (k, 3, n): section l's ``point_values``, built with the point kernels."""
        k, q = len(self.sections), self.field.q
        return point_values(self.sections, [0] * k, self.e.degrees, q).transpose(1, 0, 2)

    @functools.cached_property
    def _point_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Shape (3, m_max, k): each point's ``left_kernel``, zero rows padding
        it to the largest dimension m_max, and the dimensions m."""
        k, q = len(self.sections), self.field.q
        kernels = [left_kernel(x, q) for x in self._point_values.transpose(1, 0, 2).tolist()]
        dims = [len(kern) for kern in kernels]
        padded = [kern + [[0] * k] * (max(dims) - len(kern)) for kern in kernels]
        return np.array(padded, dtype=np.int64).reshape(3, max(dims), k), np.array(dims)

    def at(self, j: int) -> np.ndarray:
        """M_j(V), shape (k, max(0, j + 1), cols) with cols = h0(E*(j)).

        It is one twist matrix of E* -> O^k, whose k row blocks of j + 1 rows
        are the sections' own pairings: slice l pairs against section l.
        Over F_2 its rows come packed by ``pack_bits``, shape
        (k, max(0, j + 1), words), with cols bit columns.
        """
        if j not in self._pairings:
            k = len(self.sections)
            pairing = _twist_matrix(*_pairing(self.e, self.sections), j)
            # explicit sizes: rows or columns may be 0, where -1 cannot be inferred
            pairing = pairing.reshape(k, max(0, j + 1), pairing.shape[1])
            self._pairings[j] = pack_bits(pairing) if self.field.q == 2 else pairing
        return self._pairings[j]

    def _generic_ranks(self, bases: np.ndarray) -> list[int]:
        """Generic rank of the w x n form matrix of each span.

        As in ``generic_rank``, full rank min(w, n) at one of the three points
        of ``point_values`` settles it, and Bareiss decides the rest, each
        span combined alone.  At values X with left kernel L (m x k), an
        echelon basis B with pivot columns piv has rank(B X) =
        w - m + rank(L - L[:, piv] B), as x lies in the span exactly when
        x = x[piv] B; generated sections have m = k - n.  The residuals of
        ``stack_size(3 * m_max * k)`` spans are one ``matmul_mod``, ranked
        transposed (k x m) in one elimination.  A basis whose pivot columns,
        each row's first nonzero one, do not hold the identity raises ValueError.
        """
        count, w, k = bases.shape
        n, q = self.e.rank, self.field.q
        bases = np.remainder(bases, q)
        piv = (bases != 0).argmax(axis=2)
        # [s, i, j] reads bases[s, i, piv[s, j]]
        flat = k * np.arange(count * w).reshape(count, w, 1) + piv[:, None, :]
        if (bases.ravel()[flat] != np.eye(w, dtype=np.int64)).any():
            raise ValueError("a basis is not in reduced row echelon form")
        kernels, dims = self._point_kernels
        m = kernels.shape[1]
        ranks = np.empty(count, dtype=np.int64)
        size = stack_size(3 * m * k)
        for start in range(0, count, size):
            chunk = slice(start, start + size)
            # (N, 3, m, w) @ (N, 1, w, k); entries in (-q, q), which the elimination reduces
            picked = kernels[:, :, piv[chunk]].transpose(2, 0, 1, 3)
            residual = kernels - matmul_mod(picked, bases[chunk, None], q)
            # explicit sizes: m may be 0, where -1 cannot be inferred
            residual = residual.transpose(0, 1, 3, 2).reshape(3 * len(residual), k, m)
            rank = stacked_rank(self.field, residual).reshape(-1, 3)
            ranks[chunk] = (w - dims + rank).max(axis=1)
        for s in np.flatnonzero(ranks < min(w, n)).tolist():
            coeffs = stacked_combination(bases[s], self.sections, q)
            ranks[s] = _bareiss(coeffs, [0] * w, self.e.degrees, q)[0]
        return ranks.tolist()

    def saturate_stack(self, bases: np.ndarray) -> tuple[list[SaturationResult], np.ndarray]:
        """``saturate`` of the span of B V, for each w x k basis B in the stack.

        Returns the stack's distinct saturations, in order of first
        appearance, and for each basis the index of its saturation in that
        list.  For w = 1 the section must be nonzero: its kernel rank rho is
        n - 1.  For w >= 2, rho is n minus the generic rank of the span
        (``_generic_ranks``: each basis must be in reduced row echelon form).
        Each probe ranks the live twist matrices ``stack_size`` of them at a
        time, building each chunk only when it is ranked, so a probe holds at
        most ``STACK_CELLS`` entries or one matrix.
        """
        bases = np.asarray(bases, dtype=np.int64)
        count, w, _ = bases.shape
        n, q = self.e.rank, self.field.q
        if w == 1:
            rhos = [n - 1] * count
        else:
            rhos = [n - g for g in self._generic_ranks(bases)]
        bits = (bases % 2).astype(np.uint64) if q == 2 else None

        def probe(live: list[int], j: int) -> np.ndarray:
            pairing = self.at(j)
            _, rows, width = pairing.shape
            # over F_2 the rows are packed: width counts words, cols bit columns
            cols = cohomology(self.e.dual(), j)[0]
            size = stack_size(w * rows * width)
            out = []
            for start in range(0, len(live), size):
                chunk = live[start : start + size]
                if q == 2:
                    # XOR in the blocks each row of B picks, one section at a time,
                    # so the chunk's (N, w, rows, words) stack is the largest array
                    picks = bits[chunk]
                    stack = np.zeros((len(chunk), w, rows, width), dtype=np.uint64)
                    for l, block in enumerate(pairing):
                        stack ^= picks[:, :, l, None, None] * block
                else:
                    stack = stacked_combination(bases[chunk], pairing, q)
                stack = stack.reshape(len(chunk), w * rows, width)
                out.append(_twist_kernel_dimension(self.field, stack, cols))
            return np.concatenate(out)

        kernels = _count_scan(self.e.dual(), SplittingType((0,) * w), rhos, probe)
        # many spans share a kernel type, and the kernel fixes the saturation
        ids: dict[tuple[int, ...], int] = {}
        index = [ids.setdefault(tuple(kern), len(ids)) for kern in kernels]
        distinct = [_saturation(self.e, SplittingType(kern)) for kern in ids]
        return distinct, np.array(index, dtype=np.int64)
