"""Integer invariants of a triple (n, d, k).

The stability bounds use d = n*a - t with 0 <= t < n, so a is d/n rounded
up, and k*a - t = l*(n-k) + m with 0 <= m < n - k when k < n.  The balanced
type rounds d/n down instead (``bundles.generic_splitting``); the two differ
by one whenever n does not divide d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def brill_noether(n: int, d: int, k: int) -> int:
    """Expected moduli dimension on the line: -n^2 + 1 - k(k - d - n)."""
    return -n * n + 1 - k * (k - d - n)


@dataclass(frozen=True)
class Numerology:
    n: int
    d: int
    k: int
    a: int  # d = n*a - t
    t: int
    l: int | None  # k*a - t = l*(n-k) + m, only when k < n
    m: int | None
    beta: int


def decompose(n: int, d: int, k: int) -> Numerology:
    """All derived integers of the triple; l, m are absent when k >= n."""
    if n < 2:
        raise ValueError("rank n must be >= 2")
    if k < 0:
        raise ValueError("section count k must be >= 0")
    a = -((-d) // n)
    t = n * a - d
    if k < n:
        l, m = divmod(k * a - t, n - k)
    else:
        l, m = None, None
    return Numerology(n, d, k, a, t, l, m, brill_noether(n, d, k))


def beta_nonnegative_threshold(n: int, k: int) -> Fraction:
    """The degree bound with beta >= 0 iff d >= (n^2 - 1)/k - (n - k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(n * n - 1, k) - (n - k)
