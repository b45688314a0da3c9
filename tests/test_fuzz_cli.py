"""A fuzz gate for the whole command line: random valid density pairs through `cli.main`.

The pairs are valid but unusual: 1-6 cells a side, grids far from the origin
and far from the unit square, values over many decades, and zero cells. Each
pair runs `solve`, `compare` and `check-el` with every warning raised as an
error. Nothing may escape `main`; every exit code must be one the command
documents; an exit 1 must print one `error:` line whose message is on
`_ALLOWED_REFUSALS`; and what a run writes must hold up: p*'s marginals within
FEAS_TOL, and only finite numbers in report.json.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mk.cli import main
from planar_mk.coupling import FEAS_TOL, marginal_l1_error
from planar_mk.density_io import read_density, read_grid_csv

# The solver's refusals of valid input. An entry needs a line in CHANGES.md that says why.
_ALLOWED_REFUSALS = ("line search found no decrease at the first iteration",)

# the exit codes each command documents
_EXIT_CODES = {"solve": {0, 1, 2}, "compare": {0, 1, 3, 4}, "check-el": {0, 1}}


@st.composite
def density_pair(draw):
    """Two JSON density documents on one grid, with the ranges the gate is defined by."""
    grid = {}
    for axis in ("grid_x", "grid_y"):
        start = draw(st.sampled_from([0.0, -3.0, 1e3, 1e6]))
        span = draw(st.sampled_from([1e-3, 1.0, 7.0, 50.0, 1e4]))
        grid[axis] = {"min": start, "max": start + span, "n": draw(st.integers(1, 6))}
    shape = (grid["grid_x"]["n"], grid["grid_y"]["n"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = []
    for _ in range(2):
        sigma = draw(st.sampled_from([0.5, 3.0, 15.0]))
        zero_share = draw(st.sampled_from([0.0, 0.3, 0.7]))
        values = np.exp(sigma * rng.standard_normal(shape))
        values.flat[rng.permutation(values.size)[: int(zero_share * values.size)]] = 0.0
        docs.append({**grid, "values": values.tolist()})
    return docs


def run(argv: list[str]) -> tuple[int, list[str]]:
    """`main` on argv with warnings raised as errors: its exit code and its stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


def finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(pair=density_pair())
def test_valid_pairs_solve_or_are_refused_in_words(pair):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [tmp / "f.json", tmp / "g.json"]
        for path, doc in zip(paths, pair):
            path.write_text(json.dumps(doc))
        (tmp / "cfg.json").write_text(json.dumps({"max_iters": 300}))
        f, f_tilde = (read_density(path) for path in paths)
        inputs = ["--input-f", str(paths[0]), "--input-g", str(paths[1])]
        for command, extra in (("solve", ["--config", str(tmp / "cfg.json")]),
                               ("compare", ["--config", str(tmp / "cfg.json")]),
                               ("check-el", [])):
            out = tmp / command
            code, lines = run([command, *inputs, *extra, "--out-dir", str(out)])
            assert code in _EXIT_CODES[command], (command, code, lines)
            if code == 1:
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                assert lines[0][len("error: "):] in _ALLOWED_REFUSALS, (command, lines)
                continue
            assert not lines, (command, lines)
            report = json.loads((out / "report.json").read_text())
            assert finite_numbers(report), (command, report)
            if command == "solve":
                grid_x, grid_y, values = read_grid_csv(out / "p_star.csv")
                masses = values * np.outer(grid_x.cell_widths, grid_y.cell_widths)
                assert marginal_l1_error(masses, f.marginals[0].cell_masses, 0) <= FEAS_TOL
                assert marginal_l1_error(masses, f_tilde.marginals[1].cell_masses, 1) <= FEAS_TOL
