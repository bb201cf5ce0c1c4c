"""Acceptance suite: classification-vs-checker agreement and exact identities.

Each test prints one summary line; tolerances are pinned in the assertions.
The randomized campaigns are seeded, so the whole suite is reproducible.
"""

import random
import time
from fractions import Fraction

from cohsys.bundles import SplittingType, saturate
from cohsys.classification import Status, classify, cross_check, necessary_region
from cohsys.cli import VerifyCampaignConfig, run_verify_campaign
from cohsys.delta import delta_closure, delta_formula, sample_delta_input
from cohsys.exactmath import BinaryForm, PrimeField, vanishing_divisor_degree
from cohsys.numerology import (
    beta_nonnegative_threshold,
    brill_noether,
    decompose,
)
from cohsys.stability import (
    critical_alphas,
    is_alpha_stable,
    sample_generating_instance,
    sample_instance,
    stability_interval,
)

Q = 101


def _noncritical(alpha, inst):
    crits = critical_alphas(inst)
    while alpha in crits:
        alpha += Fraction(1, 9973)
    return alpha


def test_criterion_1_k1_classification_agreement():
    t0 = time.time()
    cells = 0
    for n in range(2, 6):
        d_lo = n * n - n
        cfg = VerifyCampaignConfig(
            n_values=(n,),
            d_values=tuple(range(d_lo, 25)),
            k_values=(1,),
            q=Q,
            trials=20,
            seed=101,
        )
        report = run_verify_campaign(cfg)
        assert report["all_agree"], [c for c in report["cells"] if not c.get("agree", True)]
        cells += len(report["cells"])
    elapsed = time.time() - t0
    assert elapsed < 180
    print(f"criterion 1: PASS - k=1 agreement on {cells} cells, 20 trials each, {elapsed:.0f}s")


def test_criterion_2_k2_classification_agreement():
    t0 = time.time()
    cells = 0
    exceptional_cells = []
    for n in range(3, 6):
        cfg = VerifyCampaignConfig(
            n_values=(n,),
            d_values=tuple(range(1, 25)),
            k_values=(2,),
            q=Q,
            trials=20,
            seed=202,
            empty_samples=10,
        )
        report = run_verify_campaign(cfg)
        bad = [c for c in report["cells"] if not c.get("agree", True) and "skipped" not in c]
        assert not bad, bad
        cells += len(report["cells"])
        for cell in report["cells"]:
            if cell["status"] != "Empty" or "samples" not in cell:
                continue
            inside = [
                s
                for s in cell["samples"]
                if s["kind"] in ("inside-necessary", "inside-bounds")
            ]
            if inside:
                # exactly zero stable instances on every sample inside the
                # slope-bound region, ten samples per proven-empty cell
                assert len(inside) == 10
                assert all(s["stable_count"] == 0 for s in inside)
                exceptional_cells.append((cell["n"], cell["d"]))
    # the exceptional pair plus the cells failing the degree bound
    assert (4, 6) in exceptional_cells
    assert (3, 2) in exceptional_cells
    assert (4, 4) in exceptional_cells
    elapsed = time.time() - t0
    assert elapsed < 300
    print(
        f"criterion 2: PASS - k=2 agreement on {cells} cells incl. "
        f"{len(exceptional_cells)} proven-empty cells with zero stable draws, {elapsed:.0f}s"
    )


def test_criterion_3_pencil_rank_oracle():
    t0 = time.time()
    worst_fraction = 1.0
    for a in range(1, 7):
        for t in range(1, 7):
            formula = delta_formula(a, t)
            values = [
                delta_closure(sample_delta_input(a, t, Q, 1009 * a + 101 * t + i))
                for i in range(50)
            ]
            assert all(v <= formula for v in values), (a, t)
            assert max(values) == formula, (a, t)
            frac = sum(1 for v in values if v == formula) / 50
            assert frac >= 0.9, (a, t, frac)
            worst_fraction = min(worst_fraction, frac)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(
        f"criterion 3: PASS - oracle bounded by formula on the 6x6 grid, "
        f"worst match fraction {worst_fraction:.2f}, {elapsed:.0f}s"
    )


def test_criterion_4_rank_two_full_section_space():
    t0 = time.time()
    trials = 10
    for d in (3, 4, 5, 6):
        verdict = classify(2, d, 2)
        assert verdict.status is Status.EXACT
        lower = verdict.stable_interval.lower  # t/2
        grid_inside = [lower + off for off in (Fraction(1, 2), 1, 2, 4)]
        grid_outside = [lower / 2, lower * 3 / 4] if lower > 0 else []
        grid = [(a, True) for a in grid_inside] + [(a, False) for a in grid_outside]
        while len(grid) < 6:
            extra = lower + Fraction(7 + len(grid), 1)
            grid.append((extra, True))
        grid = grid[:6]
        pattern_hits = 0
        for seed in range(trials):
            inst = sample_instance(2, d, 2, Q, 4000 + seed)
            ok = True
            for alpha, expect_stable in grid:
                rep = is_alpha_stable(inst, _noncritical(alpha, inst))
                if not expect_stable:
                    # below t/2 instability is proven for every pair, special or not
                    assert not rep.stable, (d, seed, str(alpha))
                elif rep.stable != expect_stable:
                    ok = False
            pattern_hits += ok
        # special draws (a section combination with proportional components)
        # are strictly semistable everywhere; they occur with probability O(1/q)
        assert pattern_hits >= 8, (d, pattern_hits)
    # d = 2: no stable pair at any weight, for every draw
    for seed in range(trials):
        inst = sample_instance(2, 2, 2, Q, 4100 + seed)
        for alpha in (Fraction(1, 4), Fraction(1, 2), 1, 2, 5, 11):
            assert not is_alpha_stable(inst, _noncritical(Fraction(alpha), inst)).stable
    elapsed = time.time() - t0
    print(
        "criterion 4: PASS - rank-2 full-section verdicts match (t/2, inf) for "
        f"d in 3..6 (>= 8/10 per cell, zero stable below t/2) and are empty for d = 2, "
        f"{elapsed:.0f}s"
    )


def test_criterion_5_minimal_degree_generated_pairs():
    t0 = time.time()
    for n, q in ((2, 31), (3, 7), (4, 3)):
        k = n + 1
        assert brill_noether(n, n, k) == 0
        for seed in range(10):
            inst = sample_generating_instance(n, n, k, q, 5000 + seed)
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(10)):
                rep = is_alpha_stable(inst, _noncritical(alpha, inst))
                assert rep.stable, (n, q, seed, str(alpha))
    elapsed = time.time() - t0
    print(
        "criterion 5: PASS - (n, n, n+1) generated pairs stable at 1/2, 1, 10 "
        f"for n = 2, 3, 4 (10 instances each), {elapsed:.0f}s"
    )


def test_criterion_6_exceptional_semistable_ranges():
    t0 = time.time()
    # (3, 2, 2): never stable; semistable precisely at weight 2 on generic draws
    semistable_pattern_hits = 0
    ten_alphas = [Fraction(i, 4) for i in range(1, 11)]  # 1/4 .. 5/2
    for seed in range(10):
        inst = sample_instance(3, 2, 2, Q, 6000 + seed)
        for alpha in ten_alphas:
            assert not is_alpha_stable(inst, _noncritical(alpha, inst)).stable
        at_two = is_alpha_stable(inst, Fraction(2)).semistable
        off_two = [
            is_alpha_stable(inst, a).semistable for a in (Fraction(1), Fraction(3, 2), Fraction(5, 2))
        ]
        if at_two and not any(off_two):
            semistable_pattern_hits += 1
    assert semistable_pattern_hits >= 8

    # (4, 6, 2): semistable on [1, 3], not semistable at 1/2 or 7/2, never stable
    semistable_inside_hits = 0
    for seed in range(10):
        inst = sample_instance(4, 6, 2, Q, 6100 + seed)
        inside = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        reports = [is_alpha_stable(inst, a) for a in inside]
        assert all(not r.stable for r in reports)
        if all(r.semistable for r in reports):
            semistable_inside_hits += 1
        for alpha in (Fraction(1, 2), Fraction(7, 2)):
            rep = is_alpha_stable(inst, alpha)
            assert not rep.semistable and not rep.stable
    assert semistable_inside_hits >= 8
    elapsed = time.time() - t0
    print(
        "criterion 6: PASS - exceptional semistable ranges: (3,2,2) only at 2 "
        f"[{semistable_pattern_hits}/10], (4,6,2) exactly [1,3] "
        f"[{semistable_inside_hits}/10], {elapsed:.0f}s"
    )


def test_criterion_7_saturation_matches_divisor_oracle():
    t0 = time.time()
    field = PrimeField(Q)
    rng = random.Random(7007)
    checked = 0
    failures = 0
    while checked < 200:
        n = rng.randrange(2, 5)
        degrees = sorted((rng.randrange(0, 5) for _ in range(n)), reverse=True)
        t = SplittingType(tuple(degrees))
        section = tuple(
            BinaryForm(field, tuple(rng.randrange(Q) for _ in range(a + 1))) for a in t
        )
        nonzero = [f for f in section if not f.is_zero]
        if not nonzero:
            continue
        res = saturate(t, [section])
        if res.degree != vanishing_divisor_degree(nonzero):
            failures += 1
        checked += 1
    assert failures == 0
    elapsed = time.time() - t0
    print(
        f"criterion 7: PASS - saturation degree equals the common-vanishing "
        f"oracle on 200/200 single sections, {elapsed:.0f}s"
    )


def test_criterion_8_exact_identities_exhaustive():
    t0 = time.time()
    count = 0
    for n in range(2, 9):
        for d in range(-40, 41):
            for k in range(1, 11):
                beta = brill_noether(n, d, k)
                assert (beta >= 0) == (Fraction(d) >= beta_nonnegative_threshold(n, k))
                assert k * (d + n - k) - n * n + 1 == beta
                num = decompose(n, d, k)
                if k < n:
                    region_ok = Fraction(num.t, k) < Fraction(d, n - k) - Fraction(
                        num.m * n, k * (n - k)
                    )
                    assert region_ok == (num.l > 0)
                if k == n - 1:
                    assert num.m == 0
                count += 1
        if n == 3:
            for d in range(-40, 41):
                num = decompose(3, d, 2)
                upper = Fraction(d, 1) - Fraction(num.m * 3, 2)
                assert upper == Fraction(d)
                assert cross_check(3, d).all_agree
    elapsed = time.time() - t0
    print(f"criterion 8: PASS - exact identities on {count} triples, {elapsed:.0f}s")


def test_criterion_9_instance_intervals_are_open_and_contained():
    t0 = time.time()
    rng = random.Random(909)
    checked = 0
    while checked < 100:
        n = rng.randrange(2, 5)
        k = rng.randrange(1, 3)
        d = rng.randrange(1, 13)
        inst = sample_instance(n, d, k, Q, rng.randrange(10**6))
        iv = stability_interval(inst)  # raises if not a single open interval
        if not iv.empty:
            assert iv.lower_open and (iv.upper is None or iv.upper_open)
        assert iv.issubset(necessary_region(n, d, k))
        checked += 1
    elapsed = time.time() - t0
    print(
        "criterion 9: PASS - 100/100 sampled instances have a single open "
        f"stable interval inside the necessary region, {elapsed:.0f}s"
    )
