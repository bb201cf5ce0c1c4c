"""The three benchmark workloads: seeded inputs, the timed call, checked outputs.

Each workload is a set of input classes (a campaign cell, an instance shape,
a pencil size).  Every class has a fixed pool of draws whose exact outputs
were recorded in ``reference/<workload>.json``; a seed picks a fixed number
of draws from each pool, so every seed runs the same mix of classes and only
the random sections change.  That keeps per-seed timings comparable while
the outputs stay checkable against recorded answers.

Outputs never include witness bases (a correct engine may break ties
differently) nor the campaign's ``agree`` flag (it is a statistical test).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from cohsys import cli, delta, stability
from cohsys.cli import VerifyCampaignConfig
from cohsys.delta import sample_delta_input
from cohsys.stability import (
    critical_alphas,
    is_alpha_stable,
    mix_seed,
    sample_generating_instance,
    sample_instance,
    subsystem_candidates,
)

Q = 101


@dataclass(frozen=True)
class Workload:
    """Input classes with (draws per seed, pool size), and the three steps."""

    name: str
    classes: dict[tuple[int, ...], tuple[int, int]]
    make_input: Callable[[tuple[int, ...], int], Any]  # set-up work
    # the timed call into cohsys; it looks names up on the module at call
    # time, so the traced run's wrappers see it
    run: Callable[[Any], Any]
    outputs: Callable[[Any, Any], dict]  # untimed, JSON-shaped, compared exactly

    def select(self, seed: int) -> list[tuple[str, tuple[int, ...], int]]:
        """(key, class, draw index) for every item this seed runs, in run order."""
        rng = random.Random(f"{self.name}/{seed}")
        items = []
        for cls, (count, pool) in self.classes.items():
            for j in sorted(rng.sample(range(pool), count)):
                items.append((item_key(cls, j), cls, j))
        rng.shuffle(items)
        return items

    def pool(self) -> list[tuple[str, tuple[int, ...], int]]:
        return [
            (item_key(cls, j), cls, j)
            for cls, (_, pool) in self.classes.items()
            for j in range(pool)
        ]


def item_key(cls: tuple[int, ...], j: int) -> str:
    return ",".join(map(str, cls)) + f"/{j}"


def program_caches() -> list:
    """Every functools cache in cohsys, found by attribute so new ones count too."""
    seen: dict[int, Any] = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "cohsys" and not mod_name.startswith("cohsys."):
            continue
        for obj in vars(mod).values():
            owners = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for o in owners:
                if callable(getattr(o, "cache_clear", None)) and callable(
                    getattr(o, "cache_info", None)
                ):
                    seen.setdefault(id(o), o)
    return list(seen.values())


def verdict_profile(inst) -> dict:
    """Critical weights, candidate invariants, and verdict flags around them.

    Flags are taken at every critical weight, inside every cell between them,
    and past the last one: 'S' stable, 's' semistable only, '-' neither.
    """
    crits = critical_alphas(inst)
    bounds = [Fraction(0)] + [c for c in crits if c > 0]
    points = set(crits) | {(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])}
    points.add(bounds[-1] + 1)
    flags = ""
    for alpha in sorted(points):
        rep = is_alpha_stable(inst, alpha)
        flags += "S" if rep.stable else "s" if rep.semistable else "-"
    cands = sorted([c.rank, c.degree, c.sections_dim] for c in subsystem_candidates(inst))
    return {"crit": [str(c) for c in crits], "cands": cands, "flags": flags}


# -- verify-k2: one-trial k=2 campaign cells at q=101 (criterion 2's shape) ----

def _k2_input(cls: tuple[int, ...], j: int) -> VerifyCampaignConfig:
    n, d = cls
    return VerifyCampaignConfig(
        n_values=(n,), d_values=(d,), k_values=(2,), q=Q, trials=1, seed=j, empty_samples=10
    )


def _k2_outputs(cfg: VerifyCampaignConfig, report: dict) -> dict:
    (cell,) = report["cells"]
    n, d, k = cell["n"], cell["d"], cell["k"]
    samples = [[s["alpha"], s["kind"], s["expect"], s["stable_count"]] for s in cell["samples"]]
    # the campaign's own draw for trial 0 of this cell
    inst = sample_instance(n, d, k, cfg.q, mix_seed(cfg.seed, n, d, k, 0))
    return {"status": cell["status"], "samples": samples, **verdict_profile(inst)}


VERIFY_K2 = Workload(
    name="verify-k2",
    classes={(n, d): (1, 6) for n in (3, 4, 5) for d in range(1, 25)},
    make_input=_k2_input,
    run=lambda cfg: cli.run_verify_campaign(cfg),
    outputs=_k2_outputs,
)


# -- interval-high-k: stability_interval on generated (n, n, n+1) pairs ---------

def _interval_input(cls: tuple[int, ...], j: int):
    n, q = cls
    return sample_generating_instance(n, n, n + 1, q, j)


def _interval_outputs(inst, interval) -> dict:
    return {"interval": str(interval), **verdict_profile(inst)}


INTERVAL_HIGH_K = Workload(
    name="interval-high-k",
    # (n, q): draws of one shape do about the same work, ~40 ms for (2, 11),
    # ~80 ms for (3, 3), ~220 ms for (4, 2), ~290 ms for (2, 31) and ~530 ms
    # for (3, 5).  The counts put the median in the middle of the (3, 3)
    # class and the tail percentile in the middle of the (4, 2) class, so
    # neither lands on a boundary between shapes that seeds fill differently.
    classes={(2, 11): (20, 32), (3, 3): (20, 48), (4, 2): (20, 32), (2, 31): (2, 16), (3, 5): (1, 8)},
    make_input=_interval_input,
    run=lambda inst: stability.stability_interval(inst),
    outputs=_interval_outputs,
)


# -- pencil-delta: one `cohsys delta-check` trial per item ----------------------

def _delta_input(cls: tuple[int, ...], j: int):
    a, t = cls
    return sample_delta_input(a, t, Q, j)


def _delta_run(inp) -> tuple[int, int]:
    return delta.delta_closure(inp), delta.delta_bruteforce(inp)


def _delta_outputs(inp, values: tuple[int, int]) -> dict:
    return {"closure": values[0], "bruteforce": values[1]}


PENCIL_DELTA = Workload(
    name="pencil-delta",
    # the whole a, t grid, with a = t >= 5 (the minor-enumeration hot spot,
    # ~30 ms and ~230 ms) weighted up.  32 items are faster than a = t = 5
    # and 32 slower, so the median sits in the middle of the a = t = 5 class
    # and the tail percentile inside the a = t = 6 class.  a = t = 4 keeps
    # one draw: its draws range from 3 to 20 ms.
    classes={
        (a, t): ({4: (1, 28), 5: (20, 40), 6: (30, 40)}[a] if a == t >= 4 else (1, 4))
        for a in range(1, 7)
        for t in range(1, 7)
    },
    make_input=_delta_input,
    run=_delta_run,
    outputs=_delta_outputs,
)

WORKLOADS = {w.name: w for w in (VERIFY_K2, INTERVAL_HIGH_K, PENCIL_DELTA)}
