#!/usr/bin/env python3
"""cohsys campaign benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload verify-k2 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports cohsys from ``src/``.
Every item runs with cold program caches, in one process and one thread, and
its outputs are compared with the answers recorded in
``perfbench/reference/``.  The run repeats full passes over the seed's items
while another pass fits in ``--seconds``; an item's time is its median over
passes.  The timings reported as metrics are scaled to a reference machine
speed by a probe taken before each item (``calibration.py``), because the
shared host's own speed drifts by more than the benchmark's bounds; the info
line keeps the wall-clock figures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a traced run
follows every untraced item with a traced run of it, so it also yields the
tracing overhead and checks that traced outputs equal untraced ones).  The line
before it records the environment, the seed, the tail percentile, the
wall-clock metrics, the host's speed relative to the reference and
``fail_frac``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything imports numpy; set-up probes
# inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-k2", "interval-high-k", "pencil-delta")
SETUP_REPEATS = 7
TAIL_ITEMS = 10  # items that must lie beyond the reported tail percentile


def _import_benchmark():
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracing
    import workloads

    return workloads, tracing


def setup_probe(workload_name: str, seed: int) -> tuple[float, float]:
    """Seconds to import cohsys and build the seed's inputs in this fresh
    interpreter, and the median of three speed probes taken right after."""
    t0 = perf_counter()
    workloads, _ = _import_benchmark()
    wl = workloads.WORKLOADS[workload_name]
    [wl.make_input(cls, j) for _, cls, j in wl.select(seed)]
    setup_s = perf_counter() - t0
    import calibration

    return setup_s, statistics.median(calibration.probe() for _ in range(3))


def measure_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, so import cost is counted.

    Returns (scaled to the reference speed, as measured).
    """
    import calibration

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, probe_s = map(float, proc.stdout.split())
        raw.append(setup_s)
        scaled.append(calibration.scale(setup_s, probe_s))
    return statistics.median(scaled), statistics.median(raw)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_items: int) -> float:
    """The highest percentile with at least TAIL_ITEMS items beyond it.

    Falls back to the median when there are too few items for that.
    """
    return max(50.0, 100.0 * (1 - TAIL_ITEMS / n_items))


class Runner:
    """Runs items with cold caches and checks every output."""

    def __init__(self, workload, items, inputs, reference, tracing_mod, caches):
        self.wl = workload
        self.items = items  # (key, class, draw index)
        self.inputs = inputs  # key -> generated input
        self.reference = reference  # key -> recorded outputs
        self.tracing = tracing_mod
        self.caches = caches  # cleared before every item
        self.candidate_cache = tracing_mod.candidate_cache()
        self.attempted = 0
        self.failed = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def run_item(self, key: str, tracer=None) -> tuple[float, dict] | None:
        """Seconds and checked outputs of one cold run; None if it failed.

        With a tracer, its wrappers are bound for the timed call only.
        """
        inp = self.inputs[key]
        for cache in self.caches:
            cache.cache_clear()
        self.attempted += 1
        try:
            uninstall = self.tracing.install(tracer) if tracer else None
            try:
                t0 = perf_counter()
                raw = self.wl.run(inp)
                dt = perf_counter() - t0
            finally:
                if uninstall:
                    uninstall()
            if tracer:
                info = self.candidate_cache.cache_info()
                self.cache_hits += info.hits
                self.cache_misses += info.misses
            out = self.wl.outputs(inp, raw)
        except Exception:
            self.failed += 1
            print(f"item {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if out != self.reference.get(key):
            self.failed += 1
            print(f"item {key}: output {out} differs from reference "
                  f"{self.reference.get(key)}", file=sys.stderr)
            return None
        return dt, out


def timing_metrics(item_s: dict[str, float], n_items: int) -> dict[str, float]:
    ms = [v * 1000 for v in item_s.values()]
    if not ms:
        return {}
    return {
        "items_per_s": len(ms) / (sum(ms) / 1000),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": percentile(ms, tail_percentile(n_items)),
    }


def measure(runner: Runner, seconds: float, trace: bool):
    """Timed passes until the next one would overrun; returns (metrics, info).

    Each untraced item follows a speed probe, and its time is also kept
    scaled to the reference speed; the end-to-end metrics use the scaled
    times and the info line the raw ones.  A traced run follows each
    untraced item with a traced run of the same item, so the tracing
    overhead is measured between adjacent runs.
    """
    import calibration

    plain: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    traced: dict[str, list[float]] = defaultdict(list)
    probes = []
    snapshots = []
    pass_s = []
    start = perf_counter()
    while True:
        tracer = runner.tracing.Tracer() if trace else None
        pass_total = 0.0
        for key, _, _ in runner.items:
            probe_s = calibration.probe()
            probes.append(probe_s)
            done = runner.run_item(key)
            if done:
                plain[key].append(done[0])
                scaled[key].append(calibration.scale(done[0], probe_s))
                pass_total += done[0]
            if tracer:
                done_t = runner.run_item(key, tracer)
                if done_t:
                    traced[key].append(done_t[0])
                if done and done_t and done[1] != done_t[1]:
                    runner.failed += 1
                    print(f"item {key}: traced output differs from untraced", file=sys.stderr)
        pass_s.append(round(pass_total, 4))
        if tracer:
            snapshots.append(tracer.snapshot())
        elapsed = perf_counter() - start
        if elapsed * (len(pass_s) + 1) / len(pass_s) > seconds:
            break

    item_s = {key: statistics.median(v) for key, v in plain.items()}
    info = {"items": len(runner.items), "pass_s": pass_s,
            "fail_frac": runner.failed / runner.attempted}
    if trace:
        both = [k for k in traced if k in item_s]
        overhead = (
            sum(statistics.median(traced[k]) for k in both) / sum(item_s[k] for k in both) - 1
            if both else 0.0
        )
        metrics = runner.tracing.layer_metrics(
            snapshots, runner.cache_hits, runner.cache_misses, overhead
        )
        return metrics, info
    n_items = len(runner.items)
    info["item_ms_tail_percentile"] = round(tail_percentile(n_items), 2)
    info["speed_vs_reference"] = calibration.REFERENCE_S / statistics.median(probes)
    info["wall"] = timing_metrics(item_s, n_items)
    metrics = timing_metrics({k: statistics.median(v) for k, v in scaled.items()}, n_items)
    return metrics, info


def environment(seed: int, workload_name: str) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload_name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_reference(workload_name: str) -> dict:
    with open(HERE / "reference" / f"{workload_name}.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("hit_ratio", "_per_subspace", "overhead_frac")):
        return "ratio"
    return "count"


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  only: set[str] | None = None) -> tuple[dict, dict]:
    """(info line, result line) for one run; ``only`` restricts the pool keys run."""
    setup_s = None if trace else measure_setup(workload_name, seed)
    workloads, tracing_mod = _import_benchmark()
    wl = workloads.WORKLOADS[workload_name]
    items = wl.select(seed) if only is None else [it for it in wl.pool() if it[0] in only]
    inputs = {key: wl.make_input(cls, j) for key, cls, j in items}
    reference = load_reference(workload_name)

    runner = Runner(wl, items, inputs, reference, tracing_mod, workloads.program_caches())
    metrics, info = measure(runner, seconds, trace)
    if trace:
        named = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics["setup_s"], info["wall"]["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        named = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": named,
    }
    return {"env": environment(seed, workload_name), **info}, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cohsys campaign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cohsys" / "__init__.py").is_file():
        print(f"error: no cohsys sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0
    info, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
