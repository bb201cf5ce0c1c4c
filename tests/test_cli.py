import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohsys
from cohsys.cli import (
    TABLE_HEADER,
    VerifyCampaignConfig,
    build_parser,
    main,
    run_verify_campaign,
)
from cohsys.delta import delta_closure
from cohsys.stability import sample_instance


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_line_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert "error:" in line


class TestClassifyCommand:
    def test_exceptional_pair(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "4", "6", "2")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "Empty"
        (note,) = data["semistable_notes"]
        assert note["interval"]["lower"] == "1" and note["interval"]["upper"] == "3"

    def test_exact_interval(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2", "3", "1")
        data = json.loads(out)
        assert code == 0
        iv = data["stable_interval"]
        assert (iv["lower"], iv["upper"]) == ("1", "3")

    def test_invalid_rank_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "1", "5", "1")
        assert code == 2
        assert "error" in err


class TestTableCommand:
    def test_k1_empty_at_7(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "3", "--k", "1", "--d", "6..10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["status"] for r in rows] == [
            "ExactNonEmpty", "Empty", "ExactNonEmpty", "ExactNonEmpty", "ExactNonEmpty",
        ]
        assert rows[0]["lower"] == "0" and rows[0]["upper"] == "3"

    def test_header(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "2", "--k", "1", "--d", "2")
        assert out.splitlines()[0] == ",".join(TABLE_HEADER)

    def test_two_rows(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "2..3", "--k", "1", "--d", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2

    def test_csv_json_same_data(self, capsys):
        _, out_csv, _ = run_cli(capsys, "table", "--n", "2..4", "--k", "1..2", "--d", "4..8")
        _, out_json, _ = run_cli(
            capsys, "table", "--n", "2..4", "--k", "1..2", "--d", "4..8", "--format", "json"
        )
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key in TABLE_HEADER:
                jval = j[key]
                jstr = "" if jval is None else str(jval)
                assert c[key] == jstr

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--n", "5..2", "--k", "1", "--d", "2")
        assert code == 2


class TestVerifyCommand:
    def test_small_agreeing_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--d", "2..6", "--k", "1",
            "--trials", "5", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_agree"]
        assert report["config"]["seed"] == 3

    def test_exceptional_cell_zero_stable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "4", "--d", "6", "--k", "2",
            "--trials", "5", "--seed", "1", "--empty-samples", "4",
        )
        assert code == 0
        report = json.loads(out)
        (cell,) = report["cells"]
        assert cell["status"] == "Empty"
        assert all(s["stable_count"] == 0 for s in cell["samples"])

    def test_explicit_alphas_partial_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--d", "2", "--k", "3",
            "--q", "11", "--trials", "4", "--seed", "2",
            "--alpha-rule", "explicit", "--alphas", "1/2,1,10",
            "--require-generation",
        )
        assert code == 0
        report = json.loads(out)
        (cell,) = report["cells"]
        assert all(s["expect"] == "stable" and s["agree"] for s in cell["samples"])

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n", "2", "--d", "2", "--k", "1", "--trials", "0"
        )
        assert_one_line_error(code, err)
        assert "--trials" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--alpha-rule", "explicit", "--alphas", "1/0"],
            ["--alpha-rule", "explicit", "--alphas", "1/2,1/0"],
            ["--min-stable-frac", "1/0"],
            # a share outside [0, 1]: every stable sample would disagree
            ["--min-stable-frac", "3"],
            ["--min-stable-frac", "-1/2"],
            # a composite modulus used to skip every cell and pass vacuously
            ["--q", "4"],
            ["--q", "2147483648"],
            ["--empty-samples", "-3"],
        ],
    )
    def test_bad_argument_exits_2(self, capsys, extra):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--d", "2", "--k", "1", *extra)
        assert out == ""
        assert_one_line_error(code, err)
        assert extra[-2] in err

    @pytest.mark.parametrize("share", ["0", "1"])
    def test_min_stable_frac_accepts_its_ends(self, capsys, share):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--d", "2", "--k", "1", "--trials", "1",
            "--min-stable-frac", share,
        )
        assert code == 0
        assert json.loads(out)["config"]["min_stable_frac"] == share

    def test_zero_empty_samples_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--d", "2", "--k", "1", "--trials", "1",
            "--empty-samples", "0",
        )
        assert code == 0
        assert json.loads(out)["config"]["empty_samples"] == 0

    def test_critical_weight_without_neighbour_is_sampled_in_place(self, capsys):
        # t = 0, so 0 is critical and expected "zero", and every weight just
        # above it is expected stable: the sample cannot be moved off it
        code, out, err = run_cli(
            capsys, "verify", "--n", "2", "--d", "2", "--k", "1", "--trials", "1",
            "--alpha-rule", "explicit", "--alphas", "0",
        )
        assert code == 0, err
        (cell,) = json.loads(out)["cells"]
        (sample,) = cell["samples"]
        assert (sample["alpha"], sample["expect"], sample["stable_count"]) == ("0", "zero", 0)

    def test_campaign_that_tests_nothing_fails(self, capsys):
        # the only cell is skipped: 5 independent sections need h0 >= 5
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--d", "0", "--k", "5", "--trials", "1"
        )
        assert code != 0
        report = json.loads(out)
        assert not report["all_agree"]
        assert all("skipped" in cell for cell in report["cells"])

    def test_cells_with_no_planned_weight_are_skipped(self, capsys):
        # interval-midpoint plans no weight in a PartiallyKnown cell: it
        # checks nothing there, so it neither agrees nor disagrees
        _, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--d", "3..4", "--k", "2..4", "--trials", "1",
            "--q", "7",
        )
        cells = {(c["n"], c["d"], c["k"]): c for c in json.loads(out)["cells"]}
        for key in ((3, 3, 4), (3, 4, 3), (3, 4, 4)):
            assert cells[key]["status"] == "PartiallyKnown"
            assert "skipped" in cells[key] and "agree" not in cells[key]
        for key in ((3, 3, 2), (3, 3, 3), (3, 4, 2)):
            assert cells[key]["samples"] and "skipped" not in cells[key]

    def test_empty_cell_with_no_samples_is_skipped(self, capsys):
        # the slope bounds of (4, 6, 2) are not empty, but no sample is asked for
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--d", "6", "--k", "2", "--trials", "1",
            "--empty-samples", "0",
        )
        assert code == 1
        report = json.loads(out)
        (cell,) = report["cells"]
        assert cell["status"] == "Empty"
        assert "skipped" in cell and "agree" not in cell
        assert not report["all_agree"]

    def test_containment_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--d", "3..5", "--k", "1",
            "--trials", "4", "--seed", "5", "--alpha-rule", "cell-midpoints",
        )
        assert code == 0
        report = json.loads(out)
        assert all(c["violations"] == 0 for c in report["cells"])


def verify_config(monkeypatch, capsys, *options):
    """The config ``cohsys verify --n 2..3 --d 4 --k 1..2`` builds with these options."""
    import cohsys.cli as cli_mod

    built = []

    def campaign(cfg):
        built.append(cfg)
        return {"config": cfg.to_json_dict(), "cells": [], "all_agree": True}

    monkeypatch.setattr(cli_mod, "run_verify_campaign", campaign)
    code = main(["verify", "--n", "2..3", "--d", "4", "--k", "1..2", *options])
    capsys.readouterr()
    assert code == 0
    (cfg,) = built
    return cfg


# one value other than the default for each option of verify, and its field
VERIFY_OPTIONS = [
    (["--q", "7"], "q", 7),
    (["--trials", "3"], "trials", 3),
    (["--seed", "5"], "seed", 5),
    (["--alpha-rule", "cell-midpoints"], "alpha_rule", "cell-midpoints"),
    (["--alphas", "1/2,3"], "alphas", (Fraction(1, 2), Fraction(3))),
    (["--min-stable-frac", "1/3"], "min_stable_frac", Fraction(1, 3)),
    (["--empty-samples", "0"], "empty_samples", 0),
    (["--force-large"], "force_large", True),
    (["--require-generation"], "require_generation", True),
]


class TestVerifyConfig:
    """``VerifyCampaignConfig`` is the one definition of the verify defaults."""

    def test_no_options_give_the_config_defaults(self, monkeypatch, capsys):
        cfg = verify_config(monkeypatch, capsys)
        assert cfg == VerifyCampaignConfig((2, 3), (4,), (1, 2))

    @pytest.mark.parametrize("options,name,value", VERIFY_OPTIONS)
    def test_each_option_sets_only_its_field(self, monkeypatch, capsys, options, name, value):
        cfg = verify_config(monkeypatch, capsys, *options)
        assert cfg == replace(VerifyCampaignConfig((2, 3), (4,), (1, 2)), **{name: value})

    def test_every_field_has_an_option(self):
        names = [field.name for field in fields(VerifyCampaignConfig)]
        assert names[3:] == [name for _, name, _ in VERIFY_OPTIONS]

    def test_parser_states_no_default(self):
        # an option not given leaves no attribute, so the config's default holds
        args = build_parser().parse_args(["verify", "--n", "2", "--d", "2", "--k", "1"])
        assert set(vars(args)) & {field.name for field in fields(VerifyCampaignConfig)} == set()


class TestDeltaCheckCommand:
    @pytest.mark.parametrize("a,t,expected", [(3, 2, 2), (2, 2, 1), (1, 3, 1)])
    def test_formula_matches_oracle(self, capsys, a, t, expected):
        code, out, _ = run_cli(
            capsys, "delta-check", str(a), str(t), "--trials", "25", "--seed", "9"
        )
        assert code == 0
        report = json.loads(out)
        assert report["formula"] == expected
        assert report["observed_max"] == expected
        assert report["match_fraction"] >= 0.9

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "delta-check", "3", "2", "--trials", "0")
        assert_one_line_error(code, err)
        assert "--trials" in err

    def test_composite_modulus_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "delta-check", "3", "2", "--q", "9")
        assert_one_line_error(code, err)
        assert "--q" in err

    def test_too_many_points_exits_2(self, capsys):
        # the rational scan would visit 2**31 points; the guard refuses it
        code, out, err = run_cli(
            capsys, "delta-check", "3", "3", "--q", "2147483647", "--trials", "1"
        )
        assert out == ""
        assert_one_line_error(code, err)
        assert "--force-large" in err

    def test_scan_below_closure_exits_1(self, capsys, monkeypatch):
        # the closure minimum ranges over more points than the rational scan,
        # so a scan below it is an oracle bug: the first such trial stops the run
        import cohsys.delta as delta_mod

        trials = []

        def scan(inp, allow_large=False):
            trials.append(inp)
            return delta_closure(inp) - 1

        monkeypatch.setattr(delta_mod, "delta_bruteforce", scan)
        code, out, err = run_cli(capsys, "delta-check", "3", "3", "--trials", "5")
        assert code == 1
        assert out == ""
        (line,) = err.strip().splitlines()
        assert line.startswith("error: trial 0: ")
        assert len(trials) == 1

    def test_large_modulus_below_the_guard_runs(self, capsys):
        code, out, _ = run_cli(capsys, "delta-check", "1", "1", "--q", "1000003", "--trials", "1")
        assert code == 0
        assert json.loads(out)["rational_scan_max"] == 0


class TestCheckInstanceCommand:
    @pytest.fixture
    def fixture_path(self, tmp_path):
        # the canonical (x, y) section, for reproducible slopes
        data = {
            "q": 101,
            "splitting": [1, 1],
            "sections": [[[1, 0], [0, 1]]],
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_stable_at_one(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "check-instance", fixture_path, "1")
        assert code == 0
        report = json.loads(out)
        assert report["stable"] and report["witness"] is None

    def test_witness_above(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "check-instance", fixture_path, "5/2")
        report = json.loads(out)
        w = report["witness"]
        assert (w["rank"], w["degree"], w["sections_dim"]) == (1, 0, 1)

    @pytest.mark.parametrize(
        "alpha, report",
        [
            (
                "5/2",
                {
                    "alpha": "5/2",
                    "stable": False,
                    "semistable": False,
                    "total_slope": "9/4",
                    "witness": {
                        "rank": 1,
                        "degree": 0,
                        "sections_dim": 1,
                        "alpha_slope": "5/2",
                        "subspace_basis": [[1]],
                    },
                },
            ),
            (
                "1",
                {
                    "alpha": "1",
                    "stable": True,
                    "semistable": True,
                    "total_slope": "3/2",
                    "witness": None,
                },
            ),
        ],
    )
    def test_exact_output(self, capsys, fixture_path, alpha, report):
        code, out, _ = run_cli(capsys, "check-instance", fixture_path, alpha)
        assert code == 0
        assert out == json.dumps(report, indent=2) + "\n"

    def test_closure_witness(self, capsys, tmp_path):
        path = tmp_path / "closure.json"
        path.write_text(json.dumps(sample_instance(4, 6, 2, 101, 0).to_json_dict()))
        code, out, _ = run_cli(capsys, "check-instance", str(path), "2")
        assert code == 0
        report = json.loads(out)
        assert report["witness"]["subspace_basis"] is None
        assert report["witness"]["alpha_slope"] == report["total_slope"]

    def test_mixed_type_unstable(self, capsys, tmp_path):
        data = {"q": 101, "splitting": [1, 0], "sections": [[[1, 0], [1]]]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(data))
        for alpha in ("1/2", "1", "4"):
            _, out, _ = run_cli(capsys, "check-instance", str(path), alpha)
            assert not json.loads(out)["stable"]

    @pytest.mark.parametrize("alpha", ["1/0", "0/0", "abc"])
    def test_bad_weight_exits_2(self, capsys, fixture_path, alpha):
        code, out, err = run_cli(capsys, "check-instance", fixture_path, alpha)
        assert out == ""
        assert_one_line_error(code, err)
        assert "alpha" in err

    @pytest.mark.parametrize(
        "q, splitting, k",
        [(10007, [1, 1], 3), (31, [2, 2], 5)],
    )
    def test_too_many_subspaces_exits_2(self, capsys, tmp_path, q, splitting, k):
        # unit sections e_1, ..., e_k of H^0: the guard refuses before enumerating
        width = sum(a + 1 for a in splitting)
        sections = []
        for i in range(k):
            flat = [int(i == j) for j in range(width)]
            sections.append([flat[: splitting[0] + 1], flat[splitting[0] + 1 :]])
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"q": q, "splitting": splitting, "sections": sections}))
        code, out, err = run_cli(capsys, "check-instance", str(path), "1")
        assert out == ""
        assert_one_line_error(code, err)
        assert "subspaces" in err

    def test_oversized_summand_exits_2_at_once(self, capsys, tmp_path):
        # h0 = 10**9 + 1: refused before one section is padded to h0 coefficients
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": 2, "splitting": [10**9], "sections": [[[]]]}))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "check-instance", str(path), "1")
        assert time.perf_counter() - t0 < 1
        assert out == ""
        assert_one_line_error(code, err)
        assert "h0" in err

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check-instance", str(path), "1")
        assert code == 2

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        # deeper than the parser's recursion limit
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run_cli(capsys, "check-instance", str(path), "1")
        assert out == ""
        assert_one_line_error(code, err)
        assert "nested too deeply" in err

    @pytest.mark.parametrize(
        "data",
        [
            # one component more than the splitting type has
            {"q": 101, "splitting": [1, 1], "sections": [[[1, 0], [0, 1], [5, 5]]]},
            {"q": 101, "splitting": [1, 1], "sections": [[[1, 0]]]},
            {"q": 101, "splitting": [1, 1], "sections": 5},
            {"q": 101, "splitting": [1, 1], "sections": [5]},
            {"q": 101, "splitting": [1, 1], "sections": [[[1, 0], [0, None]]]},
            {"q": 101, "splitting": [1, 1], "sections": [[[1, 0], [0, 1]]], "alpha": 1},
            {"q": 101, "splitting": [1, 1]},
            {"q": "101", "splitting": [1, 1], "sections": []},
            # a prime far above the int64 limit: rejected before any trial division
            {"q": 2**61 - 1, "splitting": [1, 1], "sections": []},
            {"q": 101, "splitting": [1, 1], "sections": [[[1, 0], [0, 1, 1]]]},
            [1, 2],
            # rank 0: the total slope d/n has no meaning
            {"q": 2, "splitting": [], "sections": []},
        ],
    )
    def test_malformed_instance_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-instance", str(path), "1")
        assert out == ""
        assert_one_line_error(code, err)


class TestCrossCheckCommand:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "cross-check", "3", "9")
        assert code == 0
        assert json.loads(out)["all_agree"]

    def test_exceptional_flag(self, capsys):
        code, out, _ = run_cli(capsys, "cross-check", "4", "6")
        assert code == 0
        assert json.loads(out)["exceptional_pair"]


def test_python_m_cohsys():
    src = Path(cohsys.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cohsys", "classify", "4", "6", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "Empty"


class TestCampaignDeterminism:
    def test_same_seed_same_report(self):
        cfg = VerifyCampaignConfig(
            n_values=(2,), d_values=(2, 3), k_values=(1,), trials=4, seed=7
        )
        assert run_verify_campaign(cfg) == run_verify_campaign(cfg)


class TestExitCodes:
    def test_disagreement_exits_1(self, capsys, monkeypatch):
        import cohsys.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "run_verify_campaign",
            lambda cfg: {"config": cfg.to_json_dict(), "cells": [], "all_agree": False},
        )
        code = main(["verify", "--n", "2", "--d", "2", "--k", "1"])
        capsys.readouterr()
        assert code == 1

    def test_missing_alphas_for_explicit_rule_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--d", "2", "--k", "1",
                               "--alpha-rule", "explicit")
        assert code == 2


def run_cli_captured(argv):
    """main() on argv with stdout and stderr captured, without pytest fixtures.

    An exception escaping main() would print a traceback from the console
    script; here it propagates and fails the calling test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert_one_line_error(code, err)


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.integers(-(10**20), 10**20),
    st.just([]),
    st.just({}),
)


def weighted(*pairs):
    """Draw from each strategy in proportion to its weight."""
    return st.sampled_from([s for weight, s in pairs for _ in range(weight)]).flatmap(lambda s: s)


@st.composite
def instance_documents(draw):
    """Instance files: half well formed, the rest with junk swapped in at any level."""
    clean = draw(st.booleans())

    def junk_or(value):
        return value if clean or draw(st.integers(0, 5)) else draw(JUNK)

    def component(a):
        size = max(0, a + 1)
        if not clean and draw(st.booleans()):
            size = draw(st.integers(0, 5))
        return junk_or(draw(st.lists(st.integers(-3, 9), min_size=size, max_size=size)))

    q = draw(st.sampled_from([2, 3, 7] if clean else [0, 2, 3, 4, 7]))
    degrees = draw(st.lists(st.integers(-2, 3), min_size=int(clean), max_size=3))
    if clean or draw(st.booleans()):
        degrees.sort(reverse=True)
    sections = [junk_or([component(a) for a in degrees]) for _ in range(draw(st.integers(0, 3)))]
    doc = {"q": junk_or(q), "splitting": junk_or(degrees), "sections": junk_or(sections)}
    if not clean and draw(st.booleans()):
        doc["extra"] = draw(JUNK)
    return junk_or(doc)


def span(lo, hi):
    """A range argument lo'..hi' inside [lo, hi], or a junk string."""
    bounds = st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted)
    return weighted((6, bounds.map(lambda p: f"{p[0]}..{p[1]}")), (1, st.text(max_size=4)))


SMALL = st.integers(-1, 8).map(str)
ARGVS = weighted(
    (2, st.tuples(st.just("classify"), SMALL, st.integers(-30, 60).map(str), SMALL).map(list)),
    (
        2,
        st.tuples(
            st.just("table"), st.just("--n"), span(2, 6), st.just("--d"), span(-5, 30),
            st.just("--k"), span(1, 7), st.just("--format"), st.sampled_from(["csv", "json", "x"]),
        ).map(list),
    ),
    (1, st.tuples(st.just("cross-check"), SMALL, st.integers(-30, 60).map(str)).map(list)),
    (
        2,
        st.tuples(
            st.just("delta-check"), st.integers(-1, 3).map(str), st.integers(-1, 3).map(str),
            st.just("--trials"), st.integers(-1, 2).map(str),
            st.just("--q"), st.sampled_from(["2", "3", "7", "101", "4", "x"]),
        ).map(list),
    ),
    (
        2,
        st.tuples(
            st.just("verify"), st.just("--n"), span(2, 3), st.just("--d"), span(-1, 4),
            st.just("--k"), span(1, 3), st.just("--trials"), st.sampled_from(["1", "2"]),
            st.just("--q"), st.sampled_from(["2", "3", "5"]),
            st.just("--alpha-rule"),
            st.sampled_from(["interval-midpoint", "cell-midpoints", "explicit"]),
            st.just("--alphas"),
            st.lists(st.sampled_from(["0", "1/3", "5"]), min_size=1, max_size=3).map(",".join),
        ).map(list),
    ),
    (1, st.lists(st.text(max_size=6), max_size=4)),
)


class TestFuzz:
    @given(instance_documents(), st.sampled_from(["0", "1/2", "1", "3", "-1", "1/0"]))
    @example({"q": 2, "splitting": [], "sections": []}, "1")
    @settings(max_examples=300, deadline=None)
    def test_instance_files(self, doc, alpha):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            path.write_text(json.dumps(doc))
            code, _, err = run_cli_captured(["check-instance", str(path), alpha])
        assert_clean_exit(code, err)

    @given(ARGVS)
    @settings(max_examples=300, deadline=None)
    def test_argv(self, argv):
        code, _, err = run_cli_captured(argv)
        assert_clean_exit(code, err)
