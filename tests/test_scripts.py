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


def run_script(script, args, cwd):
    # the subprocess must import the same package as this test, installed or not
    src = str(Path(planar_mk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, cwd=cwd, env=env)


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(tmp_path, script):
    proc = run_script(script, RUNS[script], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_output_digests_repeat_for_a_fixed_seed(tmp_path):
    # fixed-seed determinism: two runs of every benchmark job write the same bytes
    runs = [run_script("output_digest.py", ["all", "--seed", "1", "--smoke"], tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    outputs = {line.split()[0] for line in lines}
    assert {"compare8/shift1_10/report.json", "refine256/refine/g", "solve64/gauss/exit"} <= outputs
    assert all(len(line.split()[1]) == 64 for line in lines)
