import os
import subprocess
import sys
from pathlib import Path

import pytest

import catphase

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [path.name for path in DEMOS] == [
        "01_states_and_normalization.py",
        "03_quasiprobability_negativity.py",
        "04_phase_distributions.py",
        "05_one_mode_asymmetry.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(catphase.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
