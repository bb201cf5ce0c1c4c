import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    ],
)
def test_bad_argument_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
