#!/usr/bin/env python3
"""Run the full verification sweep: classification verdicts vs the checker.

Covers the solved families (k = 1 across ranks, k = 2, the rank-2
full-section case, and the minimal-degree generated pairs) and prints one
line per cell; a family whose degrees all exceed ``--d-max`` is not run.
Exit code 1 on any disagreement, or when a family that runs tests no cell.
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

# cohsys is imported from the checkout this script sits in
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohsys.cli import VerifyCampaignConfig, positive_int, prime_modulus, run_verify_campaign


def run(cfg: VerifyCampaignConfig, label: str) -> bool:
    if not cfg.d_values:
        print(f"[{label}] not run: its first degree is above --d-max")
        return True
    t0 = time.time()
    report = run_verify_campaign(cfg)
    for cell in report["cells"]:
        if "skipped" in cell:
            continue
        mark = "ok" if cell["agree"] else "DISAGREE"
        samples = cell.get("samples", [])
        detail = " ".join(
            f"a={s['alpha']}:{s['stable_count']}/{s['trials']}" for s in samples
        )
        print(f"[{label}] ({cell['n']},{cell['d']},{cell['k']}) {cell['status']:<15} {mark} {detail}")
    print(f"[{label}] all_agree={report['all_agree']} ({time.time() - t0:.1f}s)")
    return report["all_agree"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a config's class attributes are its field defaults
    parser.add_argument("--trials", type=positive_int, default=VerifyCampaignConfig.trials)
    parser.add_argument("--seed", type=int, default=VerifyCampaignConfig.seed)
    # every k = 2 family starts at d = 1, so a positive bound always tests a cell
    parser.add_argument("--d-max", type=positive_int, default=24)
    parser.add_argument("--q", type=prime_modulus, default=VerifyCampaignConfig.q)
    args = parser.parse_args()

    ok = True
    for n in range(2, 6):
        ok &= run(
            VerifyCampaignConfig(
                n_values=(n,),
                d_values=tuple(range(n * n - n, args.d_max + 1)),
                k_values=(1,),
                q=args.q,
                trials=args.trials,
                seed=args.seed,
            ),
            f"k1 n={n}",
        )
    for n in range(3, 6):
        ok &= run(
            VerifyCampaignConfig(
                n_values=(n,),
                d_values=tuple(range(1, args.d_max + 1)),
                k_values=(2,),
                q=args.q,
                trials=args.trials,
                seed=args.seed,
            ),
            f"k2 n={n}",
        )
    ok &= run(
        VerifyCampaignConfig(
            n_values=(2,),
            d_values=tuple(range(2, min(6, args.d_max) + 1)),
            k_values=(2,),
            q=args.q,
            trials=args.trials,
            seed=args.seed,
        ),
        "k=n=2",
    )
    for n, q in ((2, 31), (3, 7), (4, 3)):
        ok &= run(
            VerifyCampaignConfig(
                n_values=(n,),
                d_values=(n,) if n <= args.d_max else (),
                k_values=(n + 1,),
                q=q,
                trials=min(args.trials, 10),
                seed=args.seed,
                alpha_rule="explicit",
                alphas=(Fraction(1, 2), Fraction(1), Fraction(10)),
                require_generation=True,
            ),
            f"k=n+1 n={n}",
        )
    print("ALL AGREE" if ok else "DISAGREEMENTS FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
