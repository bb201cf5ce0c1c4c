"""Per-layer spans for the traced run, installed from outside the program.

Each wrapped function gets a span: its call count and its self time (the
span's duration minus the time covered by wrapped calls made inside it).
Wrappers replace every binding of the original function in every loaded
``cohsys`` module, since ``from .x import y`` copies names into the importing
module, and methods are replaced on their class.  A wrapped lru-cached
function stays cached: the wrapper calls the cached object.

A few hooks count work at the same boundaries: matrix cells handed to
``rank``, saturations made inside candidate enumeration, minors expanded
inside ``pencil_min_rank``, and the candidates that enumeration keeps.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable


def _count_cells(tr: "Tracer", args: tuple) -> None:
    rows, cols = args[0].data.shape
    tr.counts["rank_cells"] += rows * cols


def _count_subspace(tr: "Tracer", args: tuple) -> None:
    if tr.active["stability.rational_candidates"]:
        tr.counts["subspaces"] += 1


def _count_minor(tr: "Tracer", args: tuple) -> None:
    if tr.active["delta.pencil_min_rank"]:
        tr.counts["minors"] += 1


def _before_enumeration(tr: "Tracer", args: tuple) -> int:
    return tr.counts["subspaces"]


def _after_enumeration(tr: "Tracer", subspaces_before: int, result: Any) -> None:
    if tr.counts["subspaces"] > subspaces_before:  # a cache miss: it enumerated
        tr.counts["kept_candidates"] += len(result)


# span name, defining module, attribute (Class.method for methods), hooks
SPANS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("exactmath.rank", "cohsys.exactmath", "FieldMatrix.rank", _count_cells, None),
    ("exactmath.multiplication_matrix", "cohsys.exactmath", "multiplication_matrix", None, None),
    ("exactmath.generic_rank", "cohsys.exactmath", "generic_rank", None, None),
    ("exactmath.form_determinant", "cohsys.exactmath", "form_determinant", _count_minor, None),
    ("exactmath.vanishing_divisor_degree", "cohsys.exactmath", "vanishing_divisor_degree", None, None),
    ("bundles.twist_probe", "cohsys.bundles", "_twist_kernel_dimension", None, None),
    ("bundles.kernel_splitting", "cohsys.bundles", "kernel_splitting", None, None),
    ("bundles.saturate", "cohsys.bundles", "saturate", _count_subspace, None),
    ("stability.combine", "cohsys.stability", "SystemInstance.combine", None, None),
    (
        "stability.rational_candidates",
        "cohsys.stability",
        "_rational_candidates",
        _before_enumeration,
        _after_enumeration,
    ),
    ("stability.subsystem_candidates", "cohsys.stability", "subsystem_candidates", None, None),
    ("stability.is_alpha_stable", "cohsys.stability", "is_alpha_stable", None, None),
    ("stability.critical_alphas", "cohsys.stability", "critical_alphas", None, None),
    ("stability.stability_interval", "cohsys.stability", "stability_interval", None, None),
    ("delta.pencil_min_rank", "cohsys.delta", "pencil_min_rank", None, None),
    ("delta.delta_bruteforce", "cohsys.delta", "delta_bruteforce", None, None),
    ("classification.classify", "cohsys.classification", "classify", None, None),
    ("cli.run_verify_campaign", "cohsys.cli", "run_verify_campaign", None, None),
]

# the candidate cache whose hit ratio is reported
CANDIDATE_CACHE = ("cohsys.stability", "_rational_candidates")


class Tracer:
    """Span totals for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: child time so far
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(self, args) if before else None
            frame = [0.0]
            self.stack.append(frame)
            self.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                if self.stack:
                    self.stack[-1][0] += dt
            if after:
                after(self, token, result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Raw totals of the pass so far, then a reset for the next pass."""
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return out


def _resolve(module_name: str, attr: str) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, vars(owner)[last]


def install(tracer: Tracer) -> Callable[[], None]:
    """Bind a wrapper in place of every binding of each span's function.

    Returns the function that puts the originals back.
    """
    restore: list[tuple[Any, str, Any]] = []
    modules = [m for n, m in sys.modules.items() if n == "cohsys" or n.startswith("cohsys.")]
    for name, module_name, attr, before, after in SPANS:
        owner, last, orig = _resolve(module_name, attr)
        wrapper = tracer.wrap(name, orig, before, after)
        if isinstance(owner, type):
            restore.append((owner, last, orig))
            setattr(owner, last, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall() -> None:
        for owner, key, orig in reversed(restore):
            setattr(owner, key, orig)

    return uninstall


def unwrapped_bindings() -> list[str]:
    """Bindings in loaded cohsys modules that still hold an original span target.

    Empty while wrappers are installed; the self-test uses it to catch a
    wrapper bound in the wrong namespace.
    """
    originals = {}
    for name, module_name, attr, *_ in SPANS:
        current = _resolve(module_name, attr)[2]
        originals[id(getattr(current, "__wrapped__", current))] = name
    found = []
    for mod_name, mod in sys.modules.items():
        if mod_name != "cohsys" and not mod_name.startswith("cohsys."):
            continue
        for key, value in vars(mod).items():
            if id(value) in originals:
                found.append(f"{mod_name}.{key}")
    return found


def candidate_cache():
    """The lru-cached candidate enumeration; look it up before ``install``."""
    return _resolve(*CANDIDATE_CACHE)[2]


def layer_metrics(snapshots: list[dict[str, float]], cache_hits: int, cache_misses: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-pass medians of the raw totals, plus the derived ratios."""
    keys = set().union(*snapshots)
    raw = {k: statistics.median(s.get(k, 0) for s in snapshots) for k in keys}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "exactmath.rank.calls": raw["exactmath.rank.calls"],
        "exactmath.rank.self_s": raw["exactmath.rank.self_s"],
        "exactmath.rank.cells": raw.get("rank_cells", 0),
    }
    for name in (
        "exactmath.multiplication_matrix",
        "exactmath.generic_rank",
        "exactmath.form_determinant",
        "exactmath.vanishing_divisor_degree",
        "bundles.kernel_splitting",
        "bundles.saturate",
        "stability.combine",
        "stability.subsystem_candidates",
        "stability.is_alpha_stable",
        "stability.critical_alphas",
        "stability.stability_interval",
        "delta.pencil_min_rank",
        "delta.delta_bruteforce",
        "classification.classify",
    ):
        out[f"{name}.calls"] = raw[f"{name}.calls"]
        out[f"{name}.self_s"] = raw[f"{name}.self_s"]
    out["delta.minors_per_call"] = ratio(raw.get("minors", 0), raw["delta.pencil_min_rank.calls"])
    out["bundles.twist_probes"] = raw["bundles.twist_probe.calls"]
    out["bundles.twist_probe.self_s"] = raw["bundles.twist_probe.self_s"]
    out["bundles.probes_per_kernel"] = ratio(
        raw["bundles.twist_probe.calls"], raw["bundles.kernel_splitting.calls"]
    )
    out["stability.subspaces"] = raw.get("subspaces", 0)
    out["stability.candidates_per_subspace"] = ratio(
        raw.get("kept_candidates", 0), raw.get("subspaces", 0)
    )
    out["stability.rational_candidates.self_s"] = raw["stability.rational_candidates.self_s"]
    out["stability.candidate_cache.hit_ratio"] = ratio(cache_hits, cache_hits + cache_misses)
    out["cli.run_verify_campaign.self_s"] = raw["cli.run_verify_campaign.self_s"]
    out["trace_overhead_frac"] = overhead_frac
    return out
