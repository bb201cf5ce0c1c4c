#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (a few pool items per workload).

    python3 perfbench/selftest.py

Checks, for every workload:
* an untraced run emits exactly BENCHMARK.json's end-to-end metrics and a
  traced run exactly its per-layer metrics, each with the declared unit;
* every output matches the recorded answers, traced and untraced alike;
* while the wrappers are installed no cohsys module still holds an unwrapped
  span target, and removing them restores every original;
* each per-layer counter is nonzero on the workload it is mapped to, and the
  enumeration counters stay zero on pencil-delta.
Exits 1 with a list of failures, 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    # n = 4 reaches the closure witnesses (pencil_min_rank) on k = 2
    "verify-k2": {"3,5/0", "4,6/0", "5,8/0"},
    "interval-high-k": {"2,11/0", "3,3/0"},
    "pencil-delta": {"2,5/0", "3,3/0", "4,4/0"},
}

_ENUMERATION = [
    "exactmath.rank.calls",
    "exactmath.rank.self_s",
    "exactmath.rank.cells",
    "exactmath.multiplication_matrix.calls",
    "exactmath.multiplication_matrix.self_s",
    "stability.combine.calls",
    "stability.combine.self_s",
    "bundles.kernel_splitting.calls",
    "bundles.kernel_splitting.self_s",
    "bundles.twist_probes",
    "bundles.twist_probe.self_s",
    "bundles.probes_per_kernel",
    "bundles.saturate.calls",
    "bundles.saturate.self_s",
    "stability.subspaces",
    "stability.candidates_per_subspace",
    "stability.rational_candidates.self_s",
    "stability.subsystem_candidates.calls",
    "stability.candidate_cache.hit_ratio",
    "stability.is_alpha_stable.calls",
    "stability.critical_alphas.calls",
    "exactmath.generic_rank.calls",
]

# per-layer metric -> must be nonzero on these workloads
NONZERO = {
    "verify-k2": _ENUMERATION + [
        "exactmath.form_determinant.calls",
        "exactmath.vanishing_divisor_degree.calls",
        "delta.pencil_min_rank.calls",
        "delta.minors_per_call",
        "classification.classify.calls",
        "cli.run_verify_campaign.self_s",
    ],
    "interval-high-k": _ENUMERATION + [
        "exactmath.generic_rank.self_s",
        "stability.stability_interval.calls",
        "stability.stability_interval.self_s",
    ],
    "pencil-delta": [
        "exactmath.rank.calls",
        "exactmath.form_determinant.calls",
        "exactmath.form_determinant.self_s",
        "exactmath.vanishing_divisor_degree.calls",
        "exactmath.vanishing_divisor_degree.self_s",
        "delta.pencil_min_rank.calls",
        "delta.pencil_min_rank.self_s",
        "delta.minors_per_call",
        "delta.delta_bruteforce.calls",
        "delta.delta_bruteforce.self_s",
    ],
}
ZERO = {
    "pencil-delta": [
        "exactmath.multiplication_matrix.calls",
        "stability.combine.calls",
        "bundles.saturate.calls",
        "bundles.kernel_splitting.calls",
        "stability.subspaces",
    ],
}


def check_units(result: dict, declared: list[dict], label: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"{label}: {k} missing" for k in want if k not in got]
    problems += [f"{label}: {k} not declared" for k in got if k not in want]
    problems += [
        f"{label}: {k} unit {got[k]!r} != {want[k]!r}"
        for k in want
        if k in got and got[k] != want[k]
    ]
    return problems


def _bindings() -> dict[str, int]:
    """id of every name bound in cohsys modules and in their classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cohsys" or mod_name.startswith("cohsys."):
            for key, value in vars(mod).items():
                out[f"{mod_name}.{key}"] = id(value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        out[f"{mod_name}.{key}.{attr}"] = id(member)
    return out


def check_bindings() -> list[str]:
    _, tracing = run._import_benchmark()
    before = _bindings()
    uninstall = tracing.install(tracing.Tracer())
    try:
        problems = [f"unwrapped binding {b}" for b in tracing.unwrapped_bindings()]
    finally:
        uninstall()
    after = _bindings()
    problems += [f"{k} not restored" for k in before if after.get(k) != before[k]]
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = check_bindings()
    for workload, keys in TINY.items():
        for trace in (False, True):
            _, result = run.run_benchmark(workload, 0, 0, trace, only=keys)
            label = f"{workload} trace={int(trace)}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed items")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            problems += check_units(result, declared, label)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                problems += [f"{label}: {k} is 0" for k, v in metrics.items() if v == 0]
                continue
            problems += [
                f"{label}: {k} is 0" for k in NONZERO[workload] if not metrics.get(k)
            ]
            problems += [
                f"{label}: {k} = {metrics.get(k)}, expected 0"
                for k in ZERO.get(workload, [])
                if metrics.get(k) != 0
            ]
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
