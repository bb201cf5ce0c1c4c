import csv
import io
import json
from fractions import Fraction

import pytest

from cohsys.cli import (
    TABLE_HEADER,
    VerifyCampaignConfig,
    main,
    run_verify_campaign,
)
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

    def test_zero_empty_samples_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--d", "2", "--k", "1", "--trials", "1",
            "--empty-samples", "0",
        )
        assert code == 0
        assert json.loads(out)["config"]["empty_samples"] == 0

    def test_containment_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--d", "3..5", "--k", "1",
            "--trials", "4", "--seed", "5", "--alpha-rule", "cell-midpoints",
        )
        assert code == 0
        report = json.loads(out)
        assert all(c["violations"] == 0 for c in report["cells"])


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


class TestCheckInstanceCommand:
    @pytest.fixture
    def fixture_path(self, tmp_path):
        inst = sample_instance(2, 2, 1, 101, 0)
        # overwrite with the canonical (x, y) section for reproducible slopes
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

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check-instance", str(path), "1")
        assert code == 2

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
