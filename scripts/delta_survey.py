#!/usr/bin/env python3
"""Survey the pencil-rank invariant: formula vs both oracles on a grid.

Prints, per (a, t) cell, the closed-form value, the closure oracle's range
over random draws, the match fraction, and how often the rational-point scan
over-reports because the minimizing pencil point is irrational.  Each cell
is run and judged by ``cohsys.delta.check_pencil_cell``.  The scan can never
report less than the closure oracle, whose minimum ranges over more points:
the first trial where it does stops the survey with exit 1.
"""

import argparse
import sys
from pathlib import Path

# cohsys is imported from the checkout this script sits in
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohsys.cli import positive_int, prime_modulus
from cohsys.delta import ScanBelowClosure, check_pencil_cell, delta_formula


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a-max", type=positive_int, default=6)
    parser.add_argument("--t-max", type=positive_int, default=6)
    parser.add_argument("--q", type=prime_modulus, default=101)
    parser.add_argument("--trials", type=positive_int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'a':>3} {'t':>3} {'formula':>8} {'min':>4} {'max':>4} {'match':>6} {'scan>formula':>13}")
    bad = 0
    for a in range(1, args.a_max + 1):
        for t in range(1, args.t_max + 1):
            formula = delta_formula(a, t)
            seeds = (args.seed * 7919 + 100 * a + 10 * t + i for i in range(args.trials))
            try:
                closure, rational, holds = check_pencil_cell(a, t, args.q, seeds)
            except ValueError as exc:  # the scan's cost guard
                parser.error(str(exc))
            except ScanBelowClosure as exc:
                print(f"error: a={a} t={t} {exc}", file=sys.stderr)
                return 1
            match = closure.count(formula) / args.trials
            over = sum(1 for v in rational if v > formula)
            if not holds:
                bad += 1
            print(
                f"{a:>3} {t:>3} {formula:>8} {min(closure):>4} {max(closure):>4} "
                f"{match:>6.2f} {over:>10}/{args.trials}"
            )
    if bad:
        print(f"{bad} cells violated the formula bound")
        return 1
    print("closure oracle within the formula everywhere; maximum attained in every cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
