import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cohsys import delta

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_campaigns.py", "--trials", "1", "--d-max", "6"],
        ["scripts/delta_survey.py", "--a-max", "3", "--t-max", "3", "--trials", "3"],
        # 258 rational points: the scan spans three stacks
        ["scripts/delta_survey.py", "--a-max", "2", "--t-max", "2", "--trials", "2", "--q", "257"],
    ],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_campaigns.py", "--trials", "1", "--d-max", "2"],
        ["scripts/delta_survey.py", "--a-max", "1", "--t-max", "1", "--trials", "1"],
    ],
)
def test_script_runs_from_any_directory(argv, tmp_path):
    # each script finds src/ from its own path, not from the working directory
    proc = subprocess.run(
        [sys.executable, str(ROOT / argv[0]), *argv[1:]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_campaigns_stay_within_d_max():
    # every family caps its degrees at --d-max; one left with none says so
    proc = subprocess.run(
        [sys.executable, "scripts/run_campaigns.py", "--trials", "1", "--d-max", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    cells = [tuple(map(int, m)) for m in re.findall(r"\((-?\d+),(-?\d+),(-?\d+)\)", proc.stdout)]
    assert cells and max(d for _, d, _ in cells) <= 2
    for n in (3, 4):
        assert f"[k=n+1 n={n}] not run: its first degree is above --d-max" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # a composite modulus used to skip every k = 1 and k = 2 cell and pass vacuously
        ["scripts/run_campaigns.py", "--q", "4", "--trials", "1", "--d-max", "6"],
        ["scripts/run_campaigns.py", "--trials", "0"],
        # below every k = 1 and k = 2 family's first degree: seven families
        # with no cell used to print all_agree=True and pass
        ["scripts/run_campaigns.py", "--d-max", "-5", "--trials", "1"],
        ["scripts/run_campaigns.py", "--d-max", "0", "--trials", "1"],
        ["scripts/delta_survey.py", "--q", "4"],
        ["scripts/delta_survey.py", "--trials", "0"],
        ["scripts/delta_survey.py", "--a-max", "0"],
        ["scripts/delta_survey.py", "--t-max", "0"],
        # 2**31 rational points per trial: refused by the scan's cost guard
        ["scripts/delta_survey.py", "--a-max", "1", "--t-max", "1", "--q", "2147483647"],
        ["scripts/bench_pairs.py", "--workload", "verify-k2", "--seed", "1", "--pairs", "0"],
        ["scripts/bench_pairs.py", "--workload", "verify-k2", "--seed", "1", "--seconds", "0"],
        ["scripts/bench_pairs.py", "--workload", "verify-k3", "--seed", "1"],
        # refused before any run: no such commit, or no repository to archive
        ["scripts/bench_pairs.py", "--workload", "verify-k2", "--seed", "1", "--parent", "no-such-rev"],
    ],
)
def test_bad_argument_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "argv,golden,code",
    [
        # over F_2 five draws miss the generic value in four cells: exit 1
        (
            ["scripts/delta_survey.py", "--q", "2", "--a-max", "4", "--t-max", "4", "--trials", "5"],
            "delta_survey_q2_a4_t4_trials5.txt",
            1,
        ),
        (
            ["-m", "cohsys", "delta-check", "5", "5", "--q", "3", "--trials", "10"],
            "delta_check_5_5_q3_trials10.json",
            0,
        ),
        # seven of these draws are square of full rank at the three points the
        # closure bound ranks, and one of those drops below t - 1 elsewhere
        (
            ["-m", "cohsys", "delta-check", "4", "4", "--q", "3", "--trials", "20"],
            "delta_check_4_4_q3_trials20.json",
            0,
        ),
        # 32 cells of random draws and their stability intervals; odd n keeps
        # the k = 2 closure candidates out of it
        (
            [
                "-m", "cohsys", "verify", "--n", "3", "--d", "1..8", "--k", "1..4",
                "--trials", "2", "--q", "3", "--alpha-rule", "cell-midpoints",
            ],
            "verify_n3_d1-8_k1-4_q3_trials2_cell_midpoints.json",
            0,
        ),
        # the k = 2 exceptions with their closed semistable notes, a generic
        # k = 2 verdict and a k = n + 1 one, as printed before the weight
        # interval lost its closed form
        *(
            (["-m", "cohsys", "classify", *map(str, triple)], "classify_%d_%d_%d.json" % triple, 0)
            for triple in ((4, 6, 2), (3, 2, 2), (6, 12, 2), (5, 13, 2), (3, 3, 4))
        ),
        # generated pairs over F_2, 17 interval cells: their spans' generic
        # ranks and twist probes take the packed bit-row path
        (
            [
                "-m", "cohsys", "verify", "--n", "2..4", "--d", "2..4", "--k", "3..5",
                "--trials", "2", "--q", "2", "--alpha-rule", "cell-midpoints",
                "--require-generation",
            ],
            "verify_n2-4_d2-4_k3-5_q2_trials2_cell_midpoints_generated.json",
            0,
        ),
    ],
)
def test_small_field_output_is_unchanged(argv, golden, code):
    # the delta outputs were recorded from the sweep that tested every minor
    # size from 1 up; the verify output before the section pairing became one
    # twist matrix and each draw was ranked once
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (DATA / golden).read_text()


def test_survey_stops_when_the_scan_is_below_the_closure(monkeypatch, capsys):
    # the closure minimum ranges over more points than the rational scan, so
    # a scan below it is an oracle bug: the first such trial ends the survey
    spec = importlib.util.spec_from_file_location("delta_survey", ROOT / "scripts/delta_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(
        delta, "delta_bruteforce", lambda inp: delta.delta_closure(inp) - 1
    )
    monkeypatch.setattr(
        sys, "argv", ["delta_survey.py", "--a-max", "2", "--t-max", "2", "--trials", "3"]
    )
    assert survey.main() == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1  # the header; no row of the failing cell
    (line,) = err.strip().splitlines()
    assert line.startswith("error: a=1 t=1 trial 0: ")


def test_bench_pairs_summary_applies_the_gain_rule():
    # ten canned pairs: items_per_s wins all ten by more than the parent's
    # spread; item_ms_p50 wins nine by less than it; item_ms_tail wins eight
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts/bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def result(items_per_s, p50, tail):
        values = {"items_per_s": items_per_s, "item_ms_p50": p50, "item_ms_tail": tail}
        return {"correct": True, "failed": 0, "metrics": {k: {"value": v} for k, v in values.items()}}

    parent = [result(500 + i, 2.0 + i / 100, 3.0) for i in range(10)]
    change = [
        result(540 + i, 2.0 + i / 100 - (0.01 if i else -0.01), 2.9 if i < 8 else 3.1)
        for i in range(10)
    ]
    directions = {"items_per_s": "higher", "item_ms_p50": "lower", "item_ms_tail": "lower"}
    lines = bench.summarize(parent, change, directions)
    assert lines == [
        "items_per_s (higher is better): parent 504.5 [502.2, 506.8] -> change 544.5 [542.2, 546.8]"
        " (+7.9 %), wins 10/10, gain holds",
        "item_ms_p50 (lower is better): parent 2.045 [2.022, 2.067] -> change 2.035 [2.013, 2.058]"
        " (-0.5 %), wins 9/10, gain does not hold",
        "item_ms_tail (lower is better): parent 3 [3, 3] -> change 2.9 [2.9, 2.9]"
        " (-3.3 %), wins 8/10, gain does not hold",
    ]
    assert set(bench.metric_directions()) >= set(directions)
