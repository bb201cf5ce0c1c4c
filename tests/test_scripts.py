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
    ],
)
def test_script_runs(argv):
    # the scripts import cohsys from src/ relative to the repository root
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
