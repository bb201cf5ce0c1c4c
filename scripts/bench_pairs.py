#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against an earlier commit.

    python3 scripts/bench_pairs.py --workload verify-k2 --seed 1 --pairs 10 --seconds 10

The commit (``--parent``, HEAD by default) is extracted with ``git archive``
into a temporary directory.  Both trees are byte-compiled first: with
PYTHONDONTWRITEBYTECODE set, an edited module would otherwise be compiled
again in every fresh interpreter whose set-up ``perfbench/run.py`` times.
Each pair runs ``perfbench/run.py --trace 0`` once on each tree, the parent
first in even pairs and this checkout first in odd ones.

For each end-to-end metric the summary gives both sides' medians and
quartiles, the number of pairs the change wins, and whether the gain rule
holds: the change wins at least nine pairs in ten, and its median is better
than the parent's by more than the parent's interquartile spread.  Exit code
1 when a run fails or reads an incorrect answer, 2 on a bad argument.
"""

import argparse
import compileall
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# cohsys is imported from the checkout this script sits in
sys.path.insert(0, str(ROOT / "src"))

from cohsys.cli import positive_int

WORKLOADS = ("verify-k2", "interval-high-k", "pencil-delta")


def metric_directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, linearly interpolated."""
    xs = sorted(values)

    def at(p: float) -> float:
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(parent: list[dict], change: list[dict], directions: dict[str, str]) -> list[str]:
    """One line per metric from the result lines of paired runs, pair i being
    (parent[i], change[i])."""
    lines = []
    pairs = len(parent)
    for name, better in directions.items():
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        b_lo, b_med, b_hi = quartiles(before)
        a_lo, a_med, a_hi = quartiles(after)
        gain = wins >= math.ceil(0.9 * pairs) and sign * (a_med - b_med) > b_hi - b_lo
        lines.append(
            f"{name} ({better} is better): parent {b_med:.4g} [{b_lo:.4g}, {b_hi:.4g}]"
            f" -> change {a_med:.4g} [{a_lo:.4g}, {a_hi:.4g}]"
            f" ({100 * (a_med / b_med - 1):+.1f} %), wins {wins}/{pairs},"
            f" gain {'holds' if gain else 'does not hold'}"
        )
    return lines


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in tree."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run in {tree} read {result['failed']} failed items")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=positive_int, default=10)
    parser.add_argument("--seconds", type=positive_int, default=10)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        try:
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.parent], capture_output=True, check=True
            )
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            stderr = getattr(exc, "stderr", None) or b""
            parser.error(f"cannot extract {args.parent!r}: {stderr.decode().strip() or exc}")
        for tree in (parent_tree, ROOT):
            for part in ("src", "perfbench"):
                compileall.compile_dir(tree / part, quiet=1)

        results: dict[Path, list[dict]] = {parent_tree: [], ROOT: []}
        for i in range(args.pairs):
            order = (parent_tree, ROOT) if i % 2 == 0 else (ROOT, parent_tree)
            try:
                for tree in order:
                    results[tree].append(run_once(tree, args))
            except RuntimeError as exc:
                print(f"error: pair {i + 1}: {exc}", file=sys.stderr)
                return 1
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds} s runs,"
          f" parent {args.parent}")
    for line in summarize(results[parent_tree], results[ROOT], metric_directions()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
