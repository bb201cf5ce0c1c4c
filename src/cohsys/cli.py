"""Command-line front end: classification queries, tables, verification runs.

Exit codes: 0 success / agreement, 1 verification disagreement or a campaign
that tested nothing, 2 usage or parse errors.  All rational values are
printed as exact fraction strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import NoReturn

from .classification import AlphaInterval, Status, Verdict, classify, cross_check, slope_bounds
from .delta import ScanBelowClosure, check_pencil_cell, delta_formula
from .exactmath import PrimeField
from .numerology import decompose
from .stability import (
    SystemInstance,
    critical_alphas,
    is_alpha_stable,
    sample_generating_instance,
    sample_instance,
    stability_interval,
    mix_seed,
)

TABLE_HEADER = ["n", "d", "k", "beta", "a", "t", "l", "m", "lower", "upper", "status"]


def _parse_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(lo_i, hi_i + 1))
    return (int(text),)


def fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as 5/2; a zero denominator is refused."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction") from None


def unit_fraction(text: str) -> Fraction:
    """argparse type for a share, such as a fraction of samples: a fraction in [0, 1]."""
    value = fraction(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


def fractions(text: str) -> tuple[Fraction, ...]:
    """argparse type for a comma-separated list of fractions."""
    return tuple(fraction(part) for part in text.split(",") if part.strip())


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def prime_modulus(text: str) -> int:
    """argparse type for a field modulus: a prime below 2**31."""
    try:
        return PrimeField(int(text)).q
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


@dataclass
class VerifyCampaignConfig:
    """One verification run: classify each cell, then test sampled instances."""

    n_values: tuple[int, ...]
    d_values: tuple[int, ...]
    k_values: tuple[int, ...]
    q: int = 101
    trials: int = 20
    seed: int = 0
    alpha_rule: str = "interval-midpoint"  # interval-midpoint | cell-midpoints | explicit
    alphas: tuple[Fraction, ...] = ()
    min_stable_frac: Fraction = Fraction(4, 5)
    empty_samples: int = 10
    force_large: bool = False
    require_generation: bool = False

    def to_json_dict(self) -> dict:
        # the fields in order, with exact fractions as strings
        return {
            **asdict(self),
            "alphas": [str(a) for a in self.alphas],
            "min_stable_frac": str(self.min_stable_frac),
        }


def _expectation(verdict: Verdict, alpha: Fraction) -> str:
    """'zero', 'stable', or 'none' for a sampled weight."""
    if verdict.status is Status.EMPTY or not verdict.necessary_region.contains(alpha):
        return "zero"
    if verdict.stable_interval.contains(alpha) and verdict.status in (
        Status.EXACT,
        Status.PARTIALLY_KNOWN,
    ):
        return "stable"
    return "none"


def _plan_samples(verdict: Verdict, cfg: VerifyCampaignConfig) -> list[tuple[Fraction, str]]:
    """Sample weights and their kinds; empty for a cell the rule cannot sample."""
    if cfg.alpha_rule == "explicit":
        return [(a, "explicit") for a in cfg.alphas]
    samples: list[tuple[Fraction, str]] = []
    if verdict.status is Status.EXACT:
        iv = verdict.stable_interval
        samples.append((iv.midpoint(), "midpoint"))
        below = iv.lower - Fraction(1, 2)
        if below > 0:
            samples.append((below, "below"))
        if iv.upper is not None:
            samples.append((iv.upper + Fraction(1, 2), "above"))
        return samples
    if verdict.status is Status.EMPTY:
        # the slope bounds alone may still cut out a region even when the
        # dimension count already rules the cell out; sample inside it
        region = slope_bounds(verdict.n, verdict.d, verdict.k)
        kind = "inside-bounds" if verdict.necessary_region.empty else "inside-necessary"
        m = cfg.empty_samples
        if not region.empty:
            lo = region.lower
            if region.upper is not None:
                width = region.upper - lo
                return [(lo + width * i / (m + 1), kind) for i in range(1, m + 1)]
            return [(lo + Fraction(i, 2), kind) for i in range(1, m + 1)]
        t = decompose(verdict.n, verdict.d, verdict.k).t
        return [(Fraction(t) + Fraction(1, 2), "anywhere"), (Fraction(t) + Fraction(3, 2), "anywhere")]
    return []


def _nudge_alpha(alpha: Fraction, crits: list[Fraction], verdict: Verdict) -> Fraction:
    """Move a sample off the instance's critical weights, same expectation class.

    A critical weight with no such neighbour is sampled in place unless it is
    expected stable: some candidate's slope equals the total slope there, so
    the checker says "not stable", which any other expectation allows.
    """
    if alpha not in crits:
        return alpha
    want = _expectation(verdict, alpha)
    step = Fraction(1, 9973)
    for direction in (1, -1):
        cand = alpha
        for _ in range(len(crits) + 2):
            cand += direction * step
            if cand >= 0 and cand not in crits and _expectation(verdict, cand) == want:
                return cand
    if want == "stable":
        raise RuntimeError("could not move the sample weight off the critical set")
    return alpha


def _draw_instances(cfg: VerifyCampaignConfig, n: int, d: int, k: int) -> list[SystemInstance]:
    out = []
    for tr in range(cfg.trials):
        seed = mix_seed(cfg.seed, n, d, k, tr)
        if cfg.require_generation:
            out.append(sample_generating_instance(n, d, k, cfg.q, seed))
        else:
            out.append(sample_instance(n, d, k, cfg.q, seed))
    return out


def run_verify_campaign(cfg: VerifyCampaignConfig) -> dict:
    """Classify and sample every cell; ``all_agree`` needs at least one tested cell."""
    cells = [
        _verify_cell(cfg, n, d, k)
        for n in cfg.n_values
        for d in cfg.d_values
        for k in cfg.k_values
    ]
    checked = [cell for cell in cells if "agree" in cell]
    # a campaign that sampled no weight and drew no instance checked nothing
    tested = any(cell.get("samples") or cell.get("intervals") for cell in checked)
    all_agree = all(cell["agree"] for cell in checked) and tested
    return {"config": cfg.to_json_dict(), "cells": cells, "all_agree": all_agree}


def _verify_cell(cfg: VerifyCampaignConfig, n: int, d: int, k: int) -> dict:
    """One campaign cell: its verdict, checked against sampled instances or skipped."""
    cell = {"n": n, "d": d, "k": k}
    try:
        verdict = classify(n, d, k)
    except ValueError as exc:
        return {**cell, "skipped": f"classify: {exc}"}
    cell["status"] = verdict.status.value
    try:
        instances = _draw_instances(cfg, n, d, k)
    except (ValueError, RuntimeError) as exc:
        return {**cell, "skipped": f"sampling: {exc}"}
    if cfg.alpha_rule == "cell-midpoints":
        cell["agree"] = _containment_cell(cfg, verdict, instances, cell)
    elif plan := _plan_samples(verdict, cfg):
        cell["agree"] = _sampled_cell(cfg, verdict, instances, plan, cell)
    else:
        cell["skipped"] = f"plan: {cfg.alpha_rule} has no weight to sample in this cell"
    return cell


def _sampled_cell(cfg, verdict, instances, plan, cell) -> bool:
    samples_out = []
    agree = True
    crits_per_instance = [critical_alphas(inst, cfg.force_large) for inst in instances]
    for alpha, kind in plan:
        expect = _expectation(verdict, alpha)
        stable_count = 0
        for inst, crits in zip(instances, crits_per_instance):
            a2 = _nudge_alpha(alpha, crits, verdict)
            if is_alpha_stable(inst, a2, cfg.force_large).stable:
                stable_count += 1
        frac = Fraction(stable_count, len(instances))
        ok = True
        if expect == "zero":
            ok = stable_count == 0
        elif expect == "stable":
            ok = frac >= cfg.min_stable_frac
        samples_out.append(
            {
                "alpha": str(alpha),
                "kind": kind,
                "expect": expect,
                "stable_count": stable_count,
                "trials": len(instances),
                "agree": ok,
            }
        )
        agree = agree and ok
    cell["samples"] = samples_out
    return agree


def _containment_cell(cfg, verdict, instances, cell) -> bool:
    """Every instance's stable range must sit inside what the verdict allows."""
    violations = 0
    intervals = []
    for inst in instances:
        iv = stability_interval(inst, cfg.force_large)
        intervals.append(str(iv))
        if verdict.status is Status.EMPTY:
            ok = iv.empty
        elif verdict.status is Status.EXACT:
            ok = iv.issubset(verdict.stable_interval)
        else:
            ok = iv.issubset(verdict.necessary_region)
        if not ok:
            violations += 1
    cell["intervals"] = intervals
    cell["violations"] = violations
    return violations == 0


# -- subcommands --------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(args.n, args.d, args.k)
    print(json.dumps(verdict.to_json_dict(), indent=2))
    return 0


def _interval_cells(iv: AlphaInterval) -> tuple[str, str]:
    if iv.empty:
        return "", ""
    return str(iv.lower), "inf" if iv.upper is None else str(iv.upper)


def _table_rows(n_values, d_values, k_values) -> list[dict]:
    rows = []
    for n in n_values:
        for d in d_values:
            for k in k_values:
                num = decompose(n, d, k)
                verdict = classify(n, d, k)
                lo, hi = _interval_cells(verdict.stable_interval)
                status = verdict.status.value
                values = (n, d, k, num.beta, num.a, num.t, num.l, num.m, lo, hi, status)
                rows.append(dict(zip(TABLE_HEADER, values)))
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(_parse_range(args.n), _parse_range(args.d), _parse_range(args.k))
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    writer = csv.DictWriter(sys.stdout, fieldnames=TABLE_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = {field.name for field in fields(VerifyCampaignConfig)}
    options = {name: value for name, value in vars(args).items() if name in names}
    cfg = VerifyCampaignConfig(
        _parse_range(args.n), _parse_range(args.d), _parse_range(args.k), **options
    )
    if cfg.alpha_rule == "explicit" and not cfg.alphas:
        raise ValueError("--alpha-rule explicit needs --alphas")
    report = run_verify_campaign(cfg)
    print(json.dumps(report, indent=2))
    return 0 if report["all_agree"] else 1


def _cmd_delta_check(args: argparse.Namespace) -> int:
    formula = delta_formula(args.a, args.t)
    seeds = (mix_seed(args.seed, i) for i in range(args.trials))
    try:
        closure, rational, holds = check_pencil_cell(
            args.a, args.t, args.q, seeds, args.force_large
        )
    except ScanBelowClosure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "a": args.a,
        "t": args.t,
        "q": args.q,
        "trials": args.trials,
        "formula": formula,
        "observed_max": max(closure),
        "observed_min": min(closure),
        "match_fraction": closure.count(formula) / args.trials,
        "rational_scan_max": max(rational),
    }
    print(json.dumps(report, indent=2))
    return 0 if holds else 1


def _cmd_check_instance(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.path}: JSON nested too deeply to parse") from None
    inst = SystemInstance.from_json_dict(data)
    report = is_alpha_stable(inst, args.alpha, args.force_large)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_cross_check(args: argparse.Namespace) -> int:
    report = cross_check(args.n, args.d)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.all_agree else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with code 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohsys",
        description="Exact weight-stability of section pairs on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification verdict for one triple")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="bulk classification table")
    p.add_argument("--n", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_table)

    # the defaults are VerifyCampaignConfig's: an option not given is left out
    p = sub.add_parser(
        "verify", help="randomized agreement campaign", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--n", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--q", type=prime_modulus)
    p.add_argument("--trials", type=positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha-rule", choices=["interval-midpoint", "cell-midpoints", "explicit"])
    p.add_argument("--alphas", type=fractions, help="comma-separated exact fractions")
    p.add_argument("--min-stable-frac", type=unit_fraction)
    p.add_argument("--empty-samples", type=nonnegative_int)
    p.add_argument("--force-large", action="store_true")
    p.add_argument("--require-generation", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("delta-check", help="pencil-rank formula vs oracle")
    p.add_argument("a", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--q", type=prime_modulus, default=101)
    p.add_argument("--trials", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=_cmd_delta_check)

    p = sub.add_parser("check-instance", help="stability report for an instance file")
    p.add_argument("path")
    p.add_argument("alpha", type=fraction)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=_cmd_check_instance)

    p = sub.add_parser("cross-check", help="agreement of overlapping case rules")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_cross_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
