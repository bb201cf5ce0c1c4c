"""Non-emptiness classification for moduli of alpha-stable pairs on the line.

``classify`` dispatches on k: the fully solved cases (k = 1; k = 2 with
n >= 3; k = n = 2) return exact open intervals of weights, three families
near k = n return partial knowledge, everything else only the necessary
region.  Exact rules take precedence on overlapping k, and ``cross_check``
asserts the overlaps agree.

All interval endpoints are exact rationals; the half-integer degree bound in
the k = 2 rule makes floating point genuinely unsafe here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .numerology import beta_nonnegative_threshold, brill_noether, decompose


@dataclass(frozen=True)
class AlphaInterval:
    """Interval of weights with exact rational endpoints and openness flags.

    The lower end is always a number; an ``upper`` of None means +infinity.
    Degenerate open intervals normalize to the canonical empty interval.
    """

    lower: Fraction
    upper: Fraction | None
    lower_open: bool = True
    upper_open: bool = True
    empty: bool = False

    EMPTY: ClassVar["AlphaInterval"]

    @staticmethod
    def open_interval(lower: Fraction, upper: Fraction | None) -> "AlphaInterval":
        if upper is not None and lower >= upper:
            return AlphaInterval.EMPTY
        return AlphaInterval(lower, upper, True, True)

    @staticmethod
    def closed_interval(lower: Fraction, upper: Fraction) -> "AlphaInterval":
        if lower > upper:
            return AlphaInterval.EMPTY
        return AlphaInterval(lower, upper, False, False)

    def contains(self, x: Fraction) -> bool:
        if self.empty:
            return False
        if x < self.lower or (self.lower_open and x == self.lower):
            return False
        if self.upper is not None:
            if x > self.upper or (self.upper_open and x == self.upper):
                return False
        return True

    def issubset(self, other: "AlphaInterval") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        if self.lower < other.lower:
            return False
        if self.lower == other.lower and other.lower_open and not self.lower_open:
            return False
        if other.upper is not None:
            if self.upper is None:
                return False
            if self.upper > other.upper:
                return False
            if self.upper == other.upper and other.upper_open and not self.upper_open:
                return False
        return True

    def midpoint(self) -> Fraction:
        """A representative interior point (lower + 1 when unbounded above)."""
        if self.empty:
            raise ValueError("empty interval has no midpoint")
        if self.upper is None:
            return self.lower + 1
        return (self.lower + self.upper) / 2

    def to_json_dict(self) -> dict:
        if self.empty:
            return {"empty": True}
        return {
            "empty": False,
            "lower": str(self.lower),
            "lower_open": self.lower_open,
            "upper": None if self.upper is None else str(self.upper),
            "upper_open": self.upper_open,
        }

    def __str__(self) -> str:
        if self.empty:
            return "empty"
        hi = "inf" if self.upper is None else str(self.upper)
        lb = "(" if self.lower_open else "["
        rb = ")" if self.upper_open or self.upper is None else "]"
        return f"{lb}{self.lower}, {hi}{rb}"


AlphaInterval.EMPTY = AlphaInterval(Fraction(0), Fraction(0), True, True, empty=True)


class Status(str, enum.Enum):
    EXACT = "ExactNonEmpty"
    EMPTY = "Empty"
    NECESSARY_ONLY = "NecessaryOnly"
    PARTIALLY_KNOWN = "PartiallyKnown"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome for one triple (n, d, k).

    ``stable_interval`` is the exact non-emptiness interval for EXACT
    verdicts and the proven-sufficient region for PARTIALLY_KNOWN ones
    (possibly empty when only existence is known); ``necessary_region`` always
    holds the intersection of the necessary conditions.
    """

    n: int
    d: int
    k: int
    status: Status
    stable_interval: AlphaInterval
    necessary_region: AlphaInterval
    beta: int
    semistable_notes: tuple[tuple[AlphaInterval, str], ...] = ()
    remarks: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "status": self.status.value,
            "beta": self.beta,
            "stable_interval": self.stable_interval.to_json_dict(),
            "necessary_region": self.necessary_region.to_json_dict(),
            "semistable_notes": [
                {"interval": iv.to_json_dict(), "note": text}
                for iv, text in self.semistable_notes
            ],
            "remarks": list(self.remarks),
        }


def slope_bounds(n: int, d: int, k: int) -> AlphaInterval:
    """The open region cut out by the slope bounds alone.

    t/k < alpha < d/(n-k) - mn/(k(n-k)) when k < n, which is empty exactly
    when l <= 0 since the width is n*l/k; alpha > t/k when k >= n, empty
    when d <= 0.
    """
    if n < 2:
        raise ValueError("rank n must be >= 2")
    if k < 1:
        raise ValueError("section count k must be >= 1")
    num = decompose(n, d, k)
    lower = Fraction(num.t, k)
    if k < n:
        return AlphaInterval.open_interval(
            lower, Fraction(d, n - k) - Fraction(num.m * n, k * (n - k))
        )
    return AlphaInterval.EMPTY if d <= 0 else AlphaInterval.open_interval(lower, None)


def necessary_region(n: int, d: int, k: int) -> AlphaInterval:
    """Intersection of all necessary conditions on the weight.

    Empty when d <= 0 or beta < 0, otherwise the slope bounds.
    """
    bounds = slope_bounds(n, d, k)
    if d <= 0 or brill_noether(n, d, k) < 0:
        return AlphaInterval.EMPTY
    return bounds


def k2_degree_bound(n: int) -> Fraction:
    """Minimal degree for the k = 2 rule: n(n-2)/2 + 3/2."""
    return Fraction(n * (n - 2), 2) + Fraction(3, 2)


def _semistable_notes_k2(n: int, d: int) -> tuple[tuple[AlphaInterval, str], ...]:
    notes = []
    if (n, d) == (4, 6):
        notes.append(
            (
                AlphaInterval.closed_interval(Fraction(1), Fraction(3)),
                "semistable pairs exist exactly for 1 <= alpha <= 3; stable ones never",
            )
        )
    if (n, d) == (3, 2):
        notes.append(
            (
                AlphaInterval.closed_interval(Fraction(2), Fraction(2)),
                "semistable only at alpha = 2; stable pairs never exist",
            )
        )
    if n % 2 == 0 and n >= 4:
        r = n // 2
        if d == 2 * r * (r - 1):
            notes.append(
                (
                    AlphaInterval.closed_interval(Fraction(0), Fraction(r)),
                    f"semistable exactly for 0 <= alpha <= {r}; stable pairs never exist",
                )
            )
    return tuple(notes)


def classify(n: int, d: int, k: int) -> Verdict:
    """Decision procedure for non-emptiness of the stable-pair moduli."""
    necessary = necessary_region(n, d, k)
    num = decompose(n, d, k)

    def verdict(status, stable, notes=(), remarks=()):
        return Verdict(n, d, k, status, stable, necessary, num.beta, tuple(notes), tuple(remarks))

    if k == 1 or (k == 2 and n >= 3):
        # the necessary conditions are sufficient here, (4, 6) excepted
        if not necessary.empty and (k, n, d) != (2, 4, 6):
            return verdict(Status.EXACT, necessary)
        notes = _semistable_notes_k2(n, d) if k == 2 else ()
        return verdict(Status.EMPTY, AlphaInterval.EMPTY, notes=notes)

    if k == 2 and n == 2:
        if d > 2:
            return verdict(Status.EXACT, slope_bounds(n, d, k))
        return verdict(Status.EMPTY, AlphaInterval.EMPTY)

    if k == n - 1 and k >= 3:
        if d < n:
            return verdict(Status.EMPTY, AlphaInterval.EMPTY)
        return verdict(
            Status.PARTIALLY_KNOWN,
            AlphaInterval.EMPTY,
            remarks=(
                "nonempty for some alpha iff d >= n",
                f"the upper endpoint of the nonempty range is exactly {d}",
                "no explicit proven-sufficient region; the exact lower endpoint is unknown",
            ),
        )

    if k == n and n >= 3:
        if d <= n:
            return verdict(Status.EMPTY, AlphaInterval.EMPTY)
        return verdict(
            Status.PARTIALLY_KNOWN,
            AlphaInterval.EMPTY,
            remarks=(
                "nonempty for some alpha iff d > n",
                "the nonempty range has no upper bound",
                f"the lower endpoint is unknown beyond alpha > {Fraction(num.t, k)}",
            ),
        )

    if k == n + 1:
        if d < n:
            return verdict(Status.EMPTY, AlphaInterval.EMPTY)
        sufficient = AlphaInterval.open_interval(Fraction(num.t), None)
        if num.t == 0:
            remarks = ("the interval (0, inf) is exact here",)
        else:
            remarks = (
                f"proven nonempty for alpha > {num.t}",
                f"the exact lower endpoint lies in [{Fraction(num.t, n + 1)}, {num.t}]",
            )
        return verdict(Status.PARTIALLY_KNOWN, sufficient, remarks=remarks)

    if necessary.empty:
        # the necessary conditions alone rule out every weight
        return verdict(Status.EMPTY, AlphaInterval.EMPTY)
    return verdict(
        Status.NECESSARY_ONLY,
        AlphaInterval.EMPTY,
        remarks=("no exact rule for this k; only the necessary region is known",),
    )


@dataclass(frozen=True)
class CheckEntry:
    name: str
    left: str
    right: str
    agree: bool


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    d: int
    entries: tuple[CheckEntry, ...]
    exceptional_pair: bool

    @property
    def all_agree(self) -> bool:
        return all(e.agree for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "all_agree": self.all_agree,
            "exceptional_pair": self.exceptional_pair,
            "checks": [
                {"name": e.name, "left": e.left, "right": e.right, "agree": e.agree}
                for e in self.entries
            ],
        }


def cross_check(n: int, d: int) -> CrossCheckReport:
    """Consistency of the overlapping case rules on a fixed (n, d).

    Where the exact k = 1 and k = 2 rules overlap the k = n - 1 family
    (n = 2 and n = 3), both must be non-empty exactly when d >= n, with upper
    bound d; the degree thresholds of the dimension count and the k = 2 rule
    are one identity in disguise; (4, 6) is flagged as the exceptional pair.
    """
    if n < 2:
        raise ValueError("rank n must be >= 2")
    entries = []
    lhs = beta_nonnegative_threshold(n, 2)
    rhs = k2_degree_bound(n)
    entries.append(
        CheckEntry("k2-degree-thresholds", str(lhs), str(rhs), lhs == rhs)
    )
    if n in (2, 3):
        exact = classify(n, d, n - 1).stable_interval
        left = "empty" if exact.empty else str(exact.upper)
        right = str(d) if d >= n else "empty"
        entries.append(
            CheckEntry(f"k{n - 1}-upper-vs-k-eq-n-minus-1", left, right, left == right)
        )
    return CrossCheckReport(n, d, tuple(entries), exceptional_pair=(n, d) == (4, 6))
