"""The scripts in scripts/ run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import planar_mk

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RUNS = {
    "make_demo_densities.py": ["--n", "4"],  # writes demo/ under the working directory
    "pushforward_refinement.py": ["--resolutions", "4", "8"],
    "residual_study.py": ["--n", "6", "--max-iters", "50"],
}


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(tmp_path, script):
    # the subprocess must import the same package as this test, installed or not
    src = str(Path(planar_mk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *RUNS[script]], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
