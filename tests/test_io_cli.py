import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import planar_mk
from conftest import narrow_gaussian_pair, shift_pair
from test_oracle import random_instances
from planar_mk import cli, density_io, measures, oracle, reduction, variational
from planar_mk.cli import main
from planar_mk.coupling import FEAS_TOL
from planar_mk.density_io import (
    DensityFormatError,
    grid_spec,
    read_density,
    read_density_json,
    read_grid_csv,
    write_density_json,
    write_grid_csv,
)
from planar_mk.instances import gaussian_2d, shifted_density_2d, smooth_random_density_2d
from planar_mk.measures import DiscreteDensity2D, Grid1D, marginals_2d
from planar_mk.optimizer import SolverConfig, ipfp_project, solve
from planar_mk.variational import evaluate


def _patch_planar_mk(monkeypatch, original, spy):
    """Replace the function original with spy in every planar_mk module that holds it."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("planar_mk") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)


def write_pair(tmp_path, n=4, shift=(1, 0), seed=1):
    g = Grid1D.uniform(0.0, 1.0, n)
    f = smooth_random_density_2d(g, g, seed=seed)
    vals = f.values.copy()
    sx, sy = shift
    if sx:
        vals[-sx:, :] = 0
    if sy:
        vals[:, -sy:] = 0
    f = DiscreteDensity2D.from_values(g, g, vals)
    ft = shifted_density_2d(f, sx, sy)
    fa = tmp_path / "f.json"
    fb = tmp_path / "g.json"
    write_density_json(fa, f)
    write_density_json(fb, ft)
    return str(fa), str(fb)


def reference_density_json(d) -> bytes:
    """The writer's layout as `json.dump(doc, fh, indent=1)` over boxed floats produces it."""
    doc = {
        "grid_x": grid_spec(d.grid_x),
        "grid_y": grid_spec(d.grid_y),
        "values": [[float(v) for v in row] for row in d.values],
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def reference_grid_csv(grid_x, grid_y, values) -> bytes:
    """The grid CSV layout, one `f"{v:.17g}"` per number."""
    lines = [",".join(["x_edge\\y_edges"] + [f"{v:.17g}" for v in grid_y.nodes])]
    for i in range(grid_x.n_cells):
        lines.append(",".join([f"{grid_x.nodes[i]:.17g}"] + [f"{v:.17g}" for v in values[i]]))
    lines.append(f"{grid_x.nodes[-1]:.17g}")
    return ("\n".join(lines) + "\n").encode()


def unchecked_density(values, grid_x, grid_y):
    """A density holding arbitrary floats, bypassing the mass and sign checks, to feed the writer."""
    d = object.__new__(DiscreteDensity2D)
    for name, value in {"grid_x": grid_x, "grid_y": grid_y, "values": values}.items():
        object.__setattr__(d, name, value)
    return d


def check_grid_csv_round_trip(path, values):
    grid_x = Grid1D.uniform(0.0, 1.0, values.shape[0])
    grid_y = Grid1D.uniform(-3.0, 7.0, values.shape[1])
    write_grid_csv(path, grid_x, grid_y, values)
    bx, by, back = read_grid_csv(path)
    assert np.array_equal(back, values)
    assert back.tobytes() == values.tobytes()  # bit for bit, -0.0 included
    assert bx.nodes.tobytes() == grid_x.nodes.tobytes() and by.nodes.tobytes() == grid_y.nodes.tobytes()


def check_density_json_round_trip(path, values):
    d = unchecked_density(values, *(Grid1D.uniform(0.0, 1.0, n) for n in values.shape))
    write_density_json(path, d)
    assert path.read_bytes() == reference_density_json(d)
    back = np.asarray(json.loads(path.read_text())["values"], dtype=float)
    assert back.tobytes() == values.tobytes()


_FINITE_GRIDS = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                       elements=st.floats(allow_nan=False, allow_infinity=False))
_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300, np.pi]


def report_without_timing(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("timing")
    return json.dumps(doc, sort_keys=True)


class TestDensityIO:
    def test_json_round_trip_2d(self, tmp_path):
        g = Grid1D.uniform(-1.0, 1.0, 6)
        d = gaussian_2d(g, g, mean=(0.0, 0.2), rho=0.3)
        path = tmp_path / "d.json"
        write_density_json(path, d)
        back = read_density_json(path)
        assert isinstance(back, DiscreteDensity2D)
        assert np.allclose(back.values, d.values, rtol=1e-12)
        assert np.allclose(back.grid_x.nodes, d.grid_x.nodes)

    def test_grid_csv_round_trip(self, tmp_path):
        gx = Grid1D.uniform(0.0, 1.0, 3)
        gy = Grid1D.uniform(-2.0, 2.0, 5)
        values = np.arange(15.0).reshape(3, 5) * np.pi / 7
        path = tmp_path / "grid.csv"
        write_grid_csv(path, gx, gy, values)
        bx, by, bv = read_grid_csv(path)
        assert np.array_equal(bx.nodes, gx.nodes)
        assert np.array_equal(by.nodes, gy.nodes)
        assert np.array_equal(bv, values)

    def test_csv_density_ingestion_renormalizes(self, tmp_path):
        g = Grid1D.uniform(0.0, 1.0, 4)
        path = tmp_path / "d.csv"
        write_grid_csv(path, g, g, np.full((4, 4), 3.0))  # mass 3, not 1
        d = read_density(path)
        assert abs(d.total_mass() - 1.0) < 1e-12

    def test_malformed_json_reports_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DensityFormatError):
            read_density(path)

    @pytest.mark.parametrize("case", ["2d", "1x1", "nonuniform_y"])
    def test_json_writer_bytes_match_indent_1_dump(self, tmp_path, case):
        g = Grid1D.uniform(-1.0, 1.0, 6)
        gy = Grid1D(np.array([0.0, 0.1, 0.35, 0.4, 1.0, 2.5]))
        d = {
            "2d": gaussian_2d(g, g, mean=(0.0, 0.2), rho=0.3),
            "1x1": DiscreteDensity2D.from_values(Grid1D.uniform(0.0, 1.0, 1), Grid1D.uniform(0.0, 1.0, 1), [[1.0]]),
            "nonuniform_y": smooth_random_density_2d(g, gy, seed=4),
        }[case]
        path = tmp_path / "d.json"
        if case == "nonuniform_y":  # the file stores only min, max and n, so it would read back on another grid
            with pytest.raises(ValueError, match="grid_y is not uniform.*write_grid_csv"):
                write_density_json(path, d)
            assert not path.exists()
            return
        write_density_json(path, d)
        assert path.read_bytes() == reference_density_json(d)

    def test_json_writer_refuses_a_grid_one_ulp_off_uniform(self, tmp_path):
        nodes = np.linspace(0.0, 1.0, 5)
        nodes[2] = np.nextafter(nodes[2], 1.0)
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity2D.from_values(Grid1D(nodes), g, np.ones((4, 4)))
        with pytest.raises(ValueError, match="grid_x is not uniform"):
            write_density_json(tmp_path / "d.json", d)

    @pytest.mark.parametrize("shape", [(3, 5), (1, 1), (1, 4), (4, 1)])
    def test_csv_writer_bytes_match_per_value_format(self, tmp_path, shape):
        grid_x = Grid1D(np.cumsum(np.r_[-0.5, np.linspace(0.1, 0.9, shape[0])]))
        grid_y = Grid1D.uniform(-2.0, 2.0, shape[1])
        values = np.resize(_SPECIALS, shape[0] * shape[1]).reshape(shape)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid_x, grid_y, values)
        assert path.read_bytes() == reference_grid_csv(grid_x, grid_y, values)

    @settings(max_examples=60, deadline=None)
    @given(values=_FINITE_GRIDS)
    def test_grid_csv_round_trips_every_float(self, tmp_path_factory, values):
        check_grid_csv_round_trip(tmp_path_factory.mktemp("csv") / "grid.csv", values)

    @settings(max_examples=60, deadline=None)
    @given(values=_FINITE_GRIDS)
    @example(values=np.array([[-0.0, 5e-324, 1e300, -np.pi]]))
    @example(values=np.array([[-0.0], [5e-324], [1e300], [-np.pi]]))
    def test_density_json_round_trips_every_float(self, tmp_path_factory, values):
        check_density_json_round_trip(tmp_path_factory.mktemp("json") / "d.json", values)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # an absurd n must be rejected by the shape check, not allocated first
        huge = {"min": 0, "max": 1, "n": 10**15}
        one = {"min": 0, "max": 1, "n": 1}
        docs = [
            {"grid_x": {"min": 0, "max": 1, "n": 3}, "grid_y": one, "values": [1, 2]},
            {"grid_x": huge, "grid_y": one, "values": [1, 2]},
            {"grid_x": {"min": 0, "max": 1, "n": 2}, "grid_y": huge, "values": [[1, 2], [3, 4]]},
        ]
        for doc in docs:
            path.write_text(json.dumps(doc))
            with pytest.raises(DensityFormatError, match="does not match the grids"):
                read_density(path)


class TestDensityIOBlocks:
    """The writers format whole rows a block of about `_BLOCK_FLOATS` floats at a time."""

    # 7x3 values: JSON rows of 3 floats and CSV rows of 4 (the x-edge too). 2 floats give one row per
    # block; 8 give blocks of 2 rows, the last one partial; 13 give 4 JSON or 3 CSV rows, the last partial.
    @pytest.mark.parametrize("block", [2, 8, 13])
    def test_writer_bytes_in_small_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(density_io, "_BLOCK_FLOATS", block)
        values = np.resize(_SPECIALS, 21).reshape(7, 3)
        grid_x = Grid1D(np.cumsum(np.r_[-0.5, np.linspace(0.1, 0.9, 7)]))
        grid_y = Grid1D.uniform(-2.0, 2.0, 3)
        write_grid_csv(tmp_path / "grid.csv", grid_x, grid_y, values)
        assert (tmp_path / "grid.csv").read_bytes() == reference_grid_csv(grid_x, grid_y, values)
        d = unchecked_density(values, Grid1D.uniform(0.0, 1.0, 7), grid_y)
        write_density_json(tmp_path / "d.json", d)
        assert (tmp_path / "d.json").read_bytes() == reference_density_json(d)

    @settings(max_examples=60, deadline=None)
    @given(values=_FINITE_GRIDS, block=st.integers(1, 8))
    def test_grid_csv_round_trips_every_float_in_small_blocks(self, tmp_path_factory, values, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density_io, "_BLOCK_FLOATS", block)
            check_grid_csv_round_trip(tmp_path_factory.mktemp("csv") / "grid.csv", values)

    @settings(max_examples=60, deadline=None)
    @given(values=_FINITE_GRIDS, block=st.integers(1, 8))
    def test_density_json_round_trips_every_float_in_small_blocks(self, tmp_path_factory, values, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density_io, "_BLOCK_FLOATS", block)
            check_density_json_round_trip(tmp_path_factory.mktemp("json") / "d.json", values)

    def test_256x256_at_the_real_block_size(self, tmp_path):
        g = Grid1D.uniform(0.0, 1.0, 256)
        d = smooth_random_density_2d(g, g, seed=3)
        assert d.values.size > 2 * density_io._BLOCK_FLOATS  # several blocks
        write_density_json(tmp_path / "d.json", d)
        assert (tmp_path / "d.json").read_bytes() == reference_density_json(d)
        write_grid_csv(tmp_path / "grid.csv", g, g, d.values)
        assert (tmp_path / "grid.csv").read_bytes() == reference_grid_csv(g, g, d.values)
        _, _, back = read_grid_csv(tmp_path / "grid.csv")
        assert back.tobytes() == d.values.tobytes()

    @pytest.mark.parametrize("call", ["write_density_json", "write_grid_csv", "read_grid_csv"])
    def test_256x256_peak_memory_is_a_block_not_the_grid(self, tmp_path, call):
        # formatting or parsing the whole grid at once took 4.5-9 MB per call here
        g = Grid1D.uniform(0.0, 1.0, 256)
        d = smooth_random_density_2d(g, g, seed=3)
        write_grid_csv(tmp_path / "grid.csv", g, g, d.values)
        run = {
            "write_density_json": lambda: write_density_json(tmp_path / "d.json", d),
            "write_grid_csv": lambda: write_grid_csv(tmp_path / "grid.csv", g, g, d.values),
            "read_grid_csv": lambda: read_grid_csv(tmp_path / "grid.csv"),
        }[call]
        tracemalloc.start()
        try:
            run()
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 3.5

    def test_undecodable_byte_past_the_first_read_names_the_file(self, tmp_path):
        # the reader decodes as it parses, so the bad byte turns up mid-file; it is not a malformed number
        g = Grid1D.uniform(0.0, 1.0, 64)
        path = tmp_path / "p.csv"
        write_grid_csv(path, g, g, np.full((64, 64), 1.0 / 3.0))
        raw = path.read_bytes()
        assert len(raw) > 8 * 8192  # many of the text layer's 8 KiB reads
        path.write_bytes(raw[:-40] + b"\xff" + raw[-39:])
        with pytest.raises(DensityFormatError, match="codec can't decode byte 0xff") as exc:
            read_grid_csv(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestCliSolve:
    def test_identical_densities_converge(self, tmp_path):
        g = Grid1D.uniform(0.0, 1.0, 6)
        d = gaussian_2d(g, g, rho=0.3)
        fa = tmp_path / "f.json"
        write_density_json(fa, d)
        out = tmp_path / "out"
        code = main(["solve", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["L_final"] < 1e-6
        assert (out / "p_star.csv").exists()
        assert (out / "g.csv").exists()
        assert (out / "h.csv").exists()

    def test_emitted_grids_round_trip(self, tmp_path):
        fa, fb = write_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        for name in ("p_star.csv", "g.csv", "h.csv"):
            gx, gy, vals = read_grid_csv(out / name)
            assert vals.shape == (gx.n_cells, gy.n_cells)
        # p_star additionally parses as a density
        assert abs(read_density(out / "p_star.csv").total_mass() - 1.0) < 1e-12

    @pytest.mark.parametrize("side", [4.0, 16.0, 64.0])
    def test_floor_tight_pair_solves_on_any_domain(self, tmp_path, capsys, side):
        # criterion 4's seed-6 pair shifted by (2, 2) on [0, side]^2, which
        # has a column at the density floor's mass: its projections pass
        # IPFP's gate on any domain
        f, f_tilde = shift_pair(6, 2, 2, 8, side)
        write_density_json(tmp_path / "f.json", f)
        write_density_json(tmp_path / "g.json", f_tilde)
        out = tmp_path / "out"
        code = main(["solve", "--input-f", str(tmp_path / "f.json"), "--input-g", str(tmp_path / "g.json"),
                     "--out-dir", str(out)])
        assert code == 0 and not capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["marginal_error"]["max_iterate_l1"] <= FEAS_TOL

    def test_maps_written_from_the_solve_residual(self, tmp_path, monkeypatch):
        # both conditional-quantile fields are built once per command:
        # check-el evaluates once at p; compare and solve build the descent's
        # fields, and the residuals at p* (whose pass gives L_p_star) and at
        # the start (solve's independent-coupling baseline) read the
        # descent's passes there. g.csv and h.csv come from the pass at p*.
        fa, fb = write_pair(tmp_path, seed=3)
        builds = []
        original = reduction.conditional_quantile_field

        def spy(d, condition_axis):
            builds.append(condition_axis)
            return original(d, condition_axis)

        _patch_planar_mk(monkeypatch, original, spy)
        out = tmp_path / "out"
        for command in ("check-el", "compare", "solve"):
            builds.clear()
            assert main([command, "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
            assert len(builds) == 2 and builds.count("x") == builds.count("y"), (command, builds)
        monkeypatch.undo()
        f, f_tilde = read_density(fa), read_density(fb)
        p = solve(f, f_tilde, SolverConfig()).p_star
        grid_x, grid_y = p.grid_x, p.grid_y
        write_grid_csv(tmp_path / "g_ref.csv", grid_x, grid_y, reduction.build_g_map(f, p))
        write_grid_csv(tmp_path / "h_ref.csv", grid_x, grid_y, reduction.build_h_map(f_tilde, p))
        assert (out / "g.csv").read_bytes() == (tmp_path / "g_ref.csv").read_bytes()
        assert (out / "h.csv").read_bytes() == (tmp_path / "h_ref.csv").read_bytes()

    def test_solve_command_adds_no_pass_and_no_projection(self, tmp_path, monkeypatch):
        # planar-mk solve reports the descent's own residuals: it makes as
        # many objective passes as solve alone, and no IPFP projection
        fa, fb = write_pair(tmp_path, seed=3)
        passes, projections = [], []
        original_pass, original_project = variational.objective_pass, ipfp_project

        def count_pass(*args):
            passes.append(args[2].tobytes())
            return original_pass(*args)

        def count_projection(*args):
            projections.append(args)
            return original_project(*args)

        _patch_planar_mk(monkeypatch, original_pass, count_pass)
        _patch_planar_mk(monkeypatch, original_project, count_projection)
        assert main(["solve", "--input-f", fa, "--input-g", fb, "--out-dir", str(tmp_path / "out")]) == 0
        command_passes = list(passes)
        passes.clear()
        solve(read_density(fa), read_density(fb), SolverConfig())
        assert command_passes == passes and len(passes) > 1
        assert projections == []

    @pytest.mark.parametrize("command", ["check-el", "compare", "solve"])
    def test_each_density_marginals_taken_once(self, tmp_path, monkeypatch, command):
        # the solve, its residuals at the start and at p*, per_axis_w2_sum
        # and check-el's IPFP all read the density's kept marginals
        fa, fb = write_pair(tmp_path, seed=3)
        calls = []
        original = measures.marginals_2d

        def spy(d):
            calls.append(id(d))
            return original(d)

        _patch_planar_mk(monkeypatch, original, spy)
        assert main([command, "--input-f", fa, "--input-g", fb, "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 2 and len(set(calls)) == 2, calls

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = main(["solve", "--input-f", str(bad), "--input-g", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # inputs are validated before --out-dir is made

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_cell_exits_1(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"grid_x": {"min": 0, "max": 1, "n": 2}, "grid_y": {"min": 0, "max": 1, "n": 2}, '
            f'"values": [[1.0, {bad}], [1.0, 1.0]]}}'
        )
        code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_negative_cell_exits_1(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bad{suffix}"
        grid = Grid1D.uniform(0.0, 1.0, 2)
        values = np.array([[1.0, -5.0], [2.0, 3.0]])
        if suffix == ".json":
            write_density_json(path, unchecked_density(values, grid, grid))
        else:
            write_grid_csv(path, grid, grid, values)
        code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: density values must be nonnegative\n"
        assert not (tmp_path / "o").exists()

    def test_json_without_grid_y_exits_1(self, tmp_path, capsys):
        path = tmp_path / "one_axis.json"
        path.write_text(json.dumps({"grid_x": {"min": 0, "max": 1, "n": 2}, "values": [1, 2]}))
        code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grid_y" in err
        assert not (tmp_path / "o").exists()

    def test_flat_values_list_exits_1(self, tmp_path, capsys):
        # n_x * n_y numbers in one flat list are not a row per x cell
        path = tmp_path / "flat.json"
        two = {"min": 0, "max": 1, "n": 2}
        path.write_text(json.dumps({"grid_x": two, "grid_y": two, "values": [1, 2, 3, 4]}))
        code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: values shape (4,) does not match the grids (2, 2)\n"
        assert not (tmp_path / "o").exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main([
            "solve",
            "--input-f", str(tmp_path / "nope.json"),
            "--input-g", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("case", ["config_is_directory", "input_is_directory", "object_entry"])
    def test_unreadable_input_exits_1(self, tmp_path, capsys, case):
        fa, fb = write_pair(tmp_path)
        argv = ["solve", "--input-f", fa, "--input-g", fb, "--out-dir", str(tmp_path / "o")]
        if case == "config_is_directory":
            (tmp_path / "cfg.json").mkdir()
            argv += ["--config", str(tmp_path / "cfg.json")]
        elif case == "input_is_directory":
            (tmp_path / "dir.json").mkdir()
            argv[2] = str(tmp_path / "dir.json")
        else:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({
                "grid_x": {"min": 0, "max": 1, "n": 2},
                "grid_y": {"min": 0, "max": 1, "n": 2},
                "values": [[1, {"a": 1}], [1, 1]],
            }))
            with pytest.raises(DensityFormatError):
                read_density(bad)
            argv[2] = str(bad)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys):
        # density values, grid fields and LP instance arrays take JSON numbers
        # only, although float() would accept "1", " 2.5 " and true
        grid = {"min": 0, "max": 1, "n": 2}
        values = [[1, 2.5], [1, 1]]
        bad_densities = [
            {"grid_x": grid, "grid_y": grid, "values": [["1", " 2.5 "], [1, True]]},
            {"grid_x": grid, "grid_y": grid, "values": [[1, 2.5], [1, True]]},
            {"grid_x": grid, "grid_y": {"min": 0, "max": "1", "n": "2"}, "values": values},
            {"grid_x": {"min": False, "max": 1, "n": 2}, "grid_y": grid, "values": values},
            {"grid_x": grid, "grid_y": {"min": 0, "max": 1, "n": 2.5}, "values": values},
        ]
        path = tmp_path / "bad.json"
        for doc in bad_densities:
            path.write_text(json.dumps(doc))
            code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(tmp_path / "o")])
            assert code == 1, doc
            assert capsys.readouterr().err.startswith("error:"), doc
        bad_instances = [
            {"supply": ["0.5", 0.5], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]},
            {"supply": [0.5, 0.5], "demand": [0.5, 0.5], "cost": [[0, True], [1, 0]]},
        ]
        for doc in bad_instances:
            path.write_text(json.dumps(doc))
            assert main(["oracle", "--instance", str(path), "--out-dir", str(tmp_path / "o")]) == 1, doc
            assert capsys.readouterr().err.startswith("error:"), doc
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "check-el", "compare"])
    def test_report_layout_is_sorted_indent_1(self, tmp_path, command):
        fa, fb = write_pair(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"

    def test_reports_byte_identical_excluding_timing(self, tmp_path):
        fa, fb = write_pair(tmp_path, seed=3)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 2000}))
        assert main(["solve", "--input-f", fa, "--input-g", fb, "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["solve", "--input-f", fa, "--input-g", fb, "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert report_without_timing(out1 / "report.json") == report_without_timing(out2 / "report.json")
        assert (out1 / "p_star.csv").read_bytes() == (out2 / "p_star.csv").read_bytes()

    def test_product_pair_report_matches_axis_quantile_sum(self, tmp_path):
        from planar_mk.instances import density_1d_from_function, product_density_2d

        grid = Grid1D.uniform(0.0, 1.0, 16)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.06))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.35) ** 2) / 0.08))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.6) ** 2) / 0.07))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.55) ** 2) / 0.05))
        fa, fb = tmp_path / "f.json", tmp_path / "g.json"
        write_density_json(fa, product_density_2d(u1, u2))
        write_density_json(fb, product_density_2d(v1, v2))
        out = tmp_path / "out"
        assert main(["solve", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["L_final"] == pytest.approx(report["per_axis_w2_sum"], rel=0.02)


_TWO = {"min": 0, "max": 1, "n": 2}
_CSV_HEAD = "x_edge\\y_edges,0,0.5,1\n"
# (file name, content or None for a directory, a fragment of the error line)
_MALFORMED_INPUTS = {
    "ragged_json_values": (
        "f.json", json.dumps({"grid_x": _TWO, "grid_y": _TWO, "values": [[1, 2], [3]]}), "values must be numbers"
    ),
    "grid_spec_without_n": (
        "f.json", json.dumps({"grid_x": {"min": 0, "max": 1}, "grid_y": _TWO, "values": [[1, 2], [3, 4]]}),
        "grid_x must provide min, max and n",
    ),
    "json_infinite_grid_max": (
        "f.json", '{"grid_x": {"min": 0, "max": Infinity, "n": 2}, "grid_y": {"min": 0, "max": 1, "n": 2}, '
        '"values": [[1, 2], [3, 4]]}', "grid_x needs finite max > min",
    ),
    "csv_under_three_lines": ("f.csv", _CSV_HEAD + "0,1,1\n", "too short for a grid CSV"),
    "csv_cell_not_a_number": ("f.csv", _CSV_HEAD + "0,1,x\n0.5,1,1\n1\n", "malformed grid CSV"),
    "csv_last_row_too_long": ("f.csv", _CSV_HEAD + "0,1,1\n0.5,1,1\n1,1\n", "final row must carry only"),
    "csv_ragged_rows": ("f.csv", _CSV_HEAD + "0,1,1\n0.5,1\n1\n", "malformed grid CSV"),
    "csv_block_off_the_edges": ("f.csv", _CSV_HEAD + "0,1\n0.5,1\n1\n", "does not match the edge counts"),
    "csv_infinite_edge": ("f.csv", _CSV_HEAD + "0,1,1\n0.5,1,1\ninf\n", "grid nodes must be finite"),
    "json_nan_value": (
        "f.json", '{"grid_x": {"min": 0, "max": 1, "n": 2}, "grid_y": {"min": 0, "max": 1, "n": 2}, '
        '"values": [[1, NaN], [3, Infinity]]}', "f.json: density values must be finite",
    ),
    "csv_nan_value": ("f.csv", _CSV_HEAD + "0,1,nan\n0.5,1,1\n1\n", "f.csv: density values must be finite"),
    "txt_path": ("f.txt", "1,2\n", "unsupported extension '.txt'"),
    "json_directory": ("f.json", None, "f.json"),
    "csv_directory": ("f.csv", None, "f.csv"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_INPUTS))
def test_malformed_input_exits_1_in_one_line(tmp_path, capsys, case):
    name, content, fragment = _MALFORMED_INPUTS[case]
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--input-f", str(path), "--input-g", str(path), "--out-dir", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:") and fragment in lines[0], lines
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


_NOT_UTF8 = b'{"grid_x": \xff}'
# (argv with F for the bad file and G for a good density, the bad file's name, its bytes)
_UNREADABLE_INPUTS = {
    "grid_spec_without_n": (
        ["solve", "--input-f", "F", "--input-g", "G"], "bad.json",
        json.dumps({"grid_x": {"min": 0, "max": 1}, "grid_y": _TWO, "values": [[1, 2], [3, 4]]}).encode(),
    ),
    "density_json_not_utf8": (["solve", "--input-f", "G", "--input-g", "F"], "bad.json", _NOT_UTF8),
    "coupling_csv_not_utf8": (
        ["check-el", "--input-f", "G", "--input-g", "G", "--input-p", "F"], "p.csv",
        _CSV_HEAD.encode() + b"0,1,\xff\n0.5,1,1\n1\n",
    ),
    "config_invalid_json": (["solve", "--input-f", "G", "--input-g", "G", "--config", "F"], "cfg.json", b"{]"),
    "config_not_utf8": (["compare", "--input-f", "G", "--input-g", "G", "--config", "F"], "cfg.json", _NOT_UTF8),
    "instance_invalid_json": (["oracle", "--instance", "F"], "lp.json", b'{"supply": [1,]}'),
    "instance_nan_cost": (["oracle", "--instance", "F"], "lp.json", b'{"supply": [1], "demand": [1], "cost": [[NaN]]}'),
    "instance_unbalanced": (
        ["oracle", "--instance", "F"], "lp.json",
        b'{"supply": [0.6, 0.5], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
    ),
}


@pytest.mark.parametrize("case", list(_UNREADABLE_INPUTS))
def test_input_error_names_its_file(tmp_path, capsys, case):
    argv, name, content = _UNREADABLE_INPUTS[case]
    good = write_pair(tmp_path, n=2)[0]
    bad = tmp_path / name
    bad.write_bytes(content)
    out = tmp_path / "o"
    code = main([{"F": str(bad), "G": good}.get(a, a) for a in argv] + ["--out-dir", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), lines
    assert not out.exists()


def test_instance_errors_keep_their_types(tmp_path):
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"supply": [0.6, 0.5], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}))
    with pytest.raises(oracle.UnbalancedInstanceError, match="masses must each sum to 1") as exc:
        cli._load_instance(str(path))
    assert str(exc.value).startswith(f"{path}: ")


def test_infinite_csv_edge_is_not_a_density(tmp_path):
    # the mass of a grid with an infinite edge is NaN, which once passed the mass test
    path = tmp_path / "f.csv"
    path.write_text(_MALFORMED_INPUTS["csv_infinite_edge"][1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DensityFormatError, match="grid nodes must be finite"):
            read_density(path)
    for bad in ([0.0, 1.0, np.inf], [0.0, np.inf, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(np.array(bad))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input-f", "F"],
        ["oracle"],
        ["solve", "--input-f", "F", "--input-g", "G", "--bogus"],
        # check-el reads no solver config, so it takes neither flag
        ["check-el", "--input-f", "F", "--input-g", "G", "--config", "missing.json", "--seed", "5"],
        # the solver draws no random numbers, so no command takes a seed
        ["solve", "--input-f", "F", "--input-g", "G", "--seed", "4"],
        ["compare", "--input-f", "F", "--input-g", "G", "--seed", "4"],
    ],
    ids=["missing_input_g", "oracle_without_inputs", "unknown_flag", "check_el_solver_flags", "solve_seed",
         "compare_seed"],
)
def test_usage_error_exits_1_in_one_line(tmp_path, capsys, argv):
    # exit 2 means the solver hit max_iters, so a usage error must not use it
    files = dict(zip("FG", write_pair(tmp_path)))
    out = tmp_path / "o"
    assert main([files.get(a, a) for a in argv] + ["--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and not captured.out, captured
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0 and "--input-g" in capsys.readouterr().out


def test_readme_synopsis_lists_each_commands_flags():
    # the README's "Command line" block is the user-facing record of every subcommand's options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                for line in block.splitlines() if line.startswith("planar-mk ")}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
               for name, sub in commands.items()}
    assert synopsis == options


class TestCliOracleAndChecks:
    def test_oracle_instance_file(self, tmp_path):
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps({
            "supply": [1 / 3, 1 / 3, 1 / 3],
            "demand": [1 / 3, 1 / 3, 1 / 3],
            "cost": [[(i - j - 1.0) ** 2 for j in range(3)] for i in range(3)],
        }))
        out = tmp_path / "out"
        assert main(["oracle", "--instance", str(inst), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["objective"] == pytest.approx(1.0, abs=1e-10)
        assert (out / "plan.csv").exists()

    def test_oracle_density_pair(self, tmp_path):
        fa, fb = write_pair(tmp_path, n=4, seed=5)
        out = tmp_path / "out"
        assert main(["oracle", "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "full_2d"
        assert report["objective"] > 0

    @pytest.mark.parametrize("mode", ["lp", "full_2d"])
    def test_oracle_reports_duality_gap(self, tmp_path, mode):
        if mode == "lp":
            inst = tmp_path / "instance.json"
            inst.write_text(json.dumps({"supply": [0.2, 0.8], "demand": [0.5, 0.5], "cost": [[0, 1], [4, 1]]}))
            argv = ["--instance", str(inst)]
        else:
            fa, fb = write_pair(tmp_path, n=4, seed=5)
            argv = ["--input-f", fa, "--input-g", fb]
        out = tmp_path / "out"
        assert main(["oracle", *argv, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == mode
        assert 0 <= report["duality_gap"] <= 1e-10

    def test_oracle_unbalanced_exits_1(self, tmp_path, capsys):
        # unbalanced, non-finite (JSON NaN/Infinity/null) or malformed instances
        bad_instances = [
            '{"supply": [0.7, 0.7], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [NaN, 1.0], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [null, 1.0], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [0.5, 0.5], "demand": [Infinity, 0.0], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [0.5, 0.5], "demand": [0.5, 0.5], "cost": [[0, NaN], [1, 0]]}',
            '{"supply": [0.5, 0.5], "demand": [0.5, 0.5], "cost": [[0, 1], [-Infinity, 0]]}',
            '{"demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}',
            '{"supply": [0.5, 0.5], "demand": [0.5, 0.5]}',
            '{"supply": [0.5, 0.5], "demand": [0.5, 0.5], "cost": {"a": 0}}',
            '[[0.5, 0.5], [0.5, 0.5], [[0, 1], [1, 0]]]',
            '"supply"',
        ]
        inst = tmp_path / "instance.json"
        for text in bad_instances:
            inst.write_text(text)
            assert main(["oracle", "--instance", str(inst), "--out-dir", str(tmp_path / "o")]) == 1, text
            assert capsys.readouterr().err.startswith("error:"), text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target", ["f_tilde", "f"])
    def test_oracle_narrow_gaussian_pair_at_16x16(self, tmp_path, target):
        # floor-level masses, down to 6.6e-12, cost the LP no accuracy
        f, f_tilde = narrow_gaussian_pair(16)
        fa, fb = tmp_path / "f.json", tmp_path / "g.json"
        write_density_json(fa, f)
        write_density_json(fb, f_tilde if target == "f_tilde" else f)
        out = tmp_path / "out"
        assert main(["oracle", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["duality_gap"] <= 1e-13
        flows = np.loadtxt(out / "plan.csv", delimiter=",")
        supply, demand = (read_density(p).cell_masses.ravel() for p in (fa, fb))
        assert np.abs(flows.sum(axis=1) - supply / supply.sum()).max() <= 1e-13
        assert np.abs(flows.sum(axis=0) - demand / demand.sum()).max() <= 1e-13
        if target == "f":
            assert report["objective"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--instance", "instance.json"],
            ["oracle", "--input-f", "f.json", "--input-g", "f.json"],
            ["compare", "--input-f", "f.json", "--input-g", "f.json"],
        ],
        ids=["oracle_lp", "oracle_full_2d", "compare"],
    )
    def test_lp_failure_exits_1_in_words(self, tmp_path, capsys, monkeypatch, argv):
        def failing_lp(instance):
            raise RuntimeError("plan marginals off by 3.13e-09")

        _patch_planar_mk(monkeypatch, oracle.solve_lp, failing_lp)
        (tmp_path / "instance.json").write_text('{"supply": [1.0], "demand": [1.0], "cost": [[0.0]]}')
        g = Grid1D.uniform(0.0, 1.0, 2)
        write_density_json(tmp_path / "f.json", smooth_random_density_2d(g, g, seed=1))
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: plan marginals off by 3.13e-09\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oracle_on_costs_too_large_fails_fast_in_words(self, tmp_path, capsys, monkeypatch):
        # the reduced-cost tolerance, 1e-11 of the largest cost, sits far above
        # the potentials' roundoff; cut to 1e-17 of it, at costs x1e5 roundoff
        # prices a basis arc of this 30-atom instance below it. The simplex
        # stops at that pivot rather than repeating it up to its cap of
        # 200(m+k)max(m,k) pivots.
        monkeypatch.setattr(oracle, "_RC_TOL", 1e-17)
        instance = list(random_instances(seed=9, count=85, max_side=30))[84]
        (tmp_path / "instance.json").write_text(json.dumps({
            "supply": instance.supply.tolist(),
            "demand": instance.demand.tolist(),
            "cost": (instance.cost * 1e5).tolist(),
        }))
        start = time.perf_counter()
        rc = main(["oracle", "--instance", str(tmp_path / "instance.json"), "--out-dir", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: basis arc (5, 5) priced at ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_check_el_writes_residual_and_gradient(self, tmp_path):
        fa, fb = write_pair(tmp_path, seed=6)
        out = tmp_path / "out"
        assert main(["check-el", "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["coupling"] == "independent"
        assert report["interior_l2"] >= 0
        for name in ("residual.csv", "grad.csv"):
            gx, gy, vals = read_grid_csv(out / name)
            assert vals.shape == (gx.n_cells, gy.n_cells)

    def test_check_el_gradient_is_the_first_variation(self, tmp_path):
        fa, fb = write_pair(tmp_path, seed=6)
        out = tmp_path / "out"
        assert main(["check-el", "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        f, f_tilde = read_density(fa), read_density(fb)
        f1, f2 = marginals_2d(f)[0], marginals_2d(f_tilde)[1]
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        out_p = evaluate(f, f_tilde, p)
        write_grid_csv(tmp_path / "grad_ref.csv", f.grid_x, f_tilde.grid_y, out_p.phi + out_p.psi)
        assert (out / "grad.csv").read_bytes() == (tmp_path / "grad_ref.csv").read_bytes()

    def test_check_el_accepts_coupling_file(self, tmp_path):
        # identical correlated pair: the solved coupling is near the known
        # solution p = f, whose residual vanishes; the independent one is far
        g = Grid1D.uniform(0.0, 1.0, 8)
        d = gaussian_2d(g, g, rho=0.4)
        fa = tmp_path / "f.json"
        write_density_json(fa, d)
        out1 = tmp_path / "out1"
        assert main(["solve", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(out1)]) == 0
        out2 = tmp_path / "out2"
        code = main([
            "check-el", "--input-f", str(fa), "--input-g", str(fa),
            "--input-p", str(out1 / "p_star.csv"), "--out-dir", str(out2),
        ])
        assert code == 0
        solved = json.loads((out2 / "report.json").read_text())
        assert solved["coupling"] == "file"
        out3 = tmp_path / "out3"
        assert main(["check-el", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(out3)]) == 0
        independent = json.loads((out3 / "report.json").read_text())
        assert solved["interior_l2"] < 0.25 * independent["interior_l2"]

    @pytest.mark.parametrize(
        "grid", [Grid1D.uniform(5.0, 9.0, 4), Grid1D.uniform(0.0, 1.0, 5)], ids=["wrong_grid", "wrong_shape"]
    )
    def test_check_el_rejects_coupling_off_f_grid(self, tmp_path, capsys, grid):
        fa, fb = write_pair(tmp_path, n=4, seed=6)
        p_csv = tmp_path / "p.csv"
        write_grid_csv(p_csv, grid, grid, np.full((grid.n_cells, grid.n_cells), 1.0 / 16.0))
        code = main(["check-el", "--input-f", fa, "--input-g", fb, "--input-p", str(p_csv),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: p and f must share the x-grid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_check_el_rejects_bad_coupling_values(self, tmp_path, capsys, monkeypatch, bad):
        fa, fb = write_pair(tmp_path, n=4, seed=6)
        p_csv = tmp_path / "p.csv"
        values = np.full((4, 4), 1.0)
        values[1, 2] = bad
        write_grid_csv(p_csv, Grid1D.uniform(0.0, 1.0, 4), Grid1D.uniform(0.0, 1.0, 4), values)

        def no_ipfp(*args, **kwargs):
            raise AssertionError("IPFP ran on a bad coupling")

        monkeypatch.setattr(cli, "ipfp_project", no_ipfp)
        code = main(["check-el", "--input-f", fa, "--input-g", fb, "--input-p", str(p_csv),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite and nonnegative" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def check_el_on_2x2(tmp_path, coupling, marginal):
        """`check-el` of a 2x2 coupling against f = f~ = the product of marginal with itself."""
        g = Grid1D.uniform(0.0, 1.0, 2)
        fa = tmp_path / "f.json"
        write_density_json(fa, DiscreteDensity2D.from_values(g, g, np.outer(marginal, marginal)))
        p_csv = tmp_path / "p.csv"
        write_grid_csv(p_csv, g, g, np.array(coupling))
        return main(["check-el", "--input-f", str(fa), "--input-g", str(fa), "--input-p", str(p_csv),
                     "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "coupling, marginal", [([[1.0, 0.0], [0.0, 0.0]], [0.5, 0.5])], ids=["no_coupling_on_support"]
    )
    def test_check_el_exits_in_words_when_ipfp_crawls(self, tmp_path, capsys, coupling, marginal):
        # no coupling lives on the support: only the floored cells can move
        # mass, so IPFP runs out of sweeps
        assert self.check_el_on_2x2(tmp_path, coupling, marginal) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IPFP residual") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_check_el_projects_a_split_support_coupling(self, tmp_path, capsys):
        # the support splits into two blocks, each of which scales onto its
        # marginals alone; the floored cells hold too little mass to hold
        # IPFP off its gate
        assert self.check_el_on_2x2(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1 / 3, 2 / 3]) == 0
        assert not capsys.readouterr().err
        assert (tmp_path / "out" / "report.json").exists()

    def test_check_lemmas_hits_analytic_values(self, tmp_path):
        out = tmp_path / "out"
        assert main(["check-lemmas", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for block in ("lemma1", "lemma2"):
            for case in report["results"][block]:
                assert case["error"] < 1e-4, case


class TestCliCompare:
    def test_shift_instance_within_tolerance(self, tmp_path):
        fa, fb = write_pair(tmp_path, n=4, shift=(1, 0), seed=7)
        out = tmp_path / "out"
        code = main(["compare", "--input-f", fa, "--input-g", fb, "--out-dir", str(out), "--tolerance", "1e-3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gap"] <= 1e-3
        assert report["within_tolerance"] is True

    def test_identical_densities_zero_gap(self, tmp_path):
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = smooth_random_density_2d(g, g, seed=8)
        fa = tmp_path / "f.json"
        write_density_json(fa, d)
        out = tmp_path / "out"
        code = main(["compare", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["oracle_optimum"] == pytest.approx(0.0, abs=1e-9)
        assert report["gap"] <= 1e-5

    @pytest.mark.parametrize("seed, shift", [(1, (1, 0)), (2, (0, 1)), (3, (1, 1))])
    def test_shift_instance_at_16x16(self, tmp_path, seed, shift):
        fa, fb = write_pair(tmp_path, n=16, shift=shift, seed=seed)
        out = tmp_path / "out"
        assert main(["compare", "--input-f", fa, "--input-g", fb, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["grid"]["x"]["n"] == 16
        assert report["gap"] <= 1e-3

    def test_L_p_star_is_L_at_p_star(self, tmp_path):
        # p* is the descent's last iterate, so L at p* is L_final bit for bit
        # on this floor-tight pair
        f, f_tilde = shift_pair(3, 1, 1, 8)
        fa, fb = tmp_path / "f.json", tmp_path / "g.json"
        write_density_json(fa, f)
        write_density_json(fb, f_tilde)
        out = tmp_path / "out"
        assert main(["compare", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        f, f_tilde = read_density(fa), read_density(fb)
        solved = solve(f, f_tilde)
        assert report["L_p_star"] == evaluate(f, f_tilde, solved.p_star).L_value
        assert report["L_p_star"] == solved.L_final

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_1_before_solving(self, tmp_path, capsys, tolerance):
        fa, fb = write_pair(tmp_path, n=4, seed=7)
        out = tmp_path / "out"
        code = main(["compare", "--input-f", fa, "--input-g", fb, "--out-dir", str(out), "--tolerance", tolerance])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --tolerance")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["f_tilde", "f"])
    def test_narrow_gaussian_pair_at_16x16(self, tmp_path, target):
        # the LP solves despite floor-level masses. Off whole-cell shifts the
        # cell-center LP bounds neither side, so the gap (1.1e-3 against f~)
        # is not held to the default tolerance.
        f, f_tilde = narrow_gaussian_pair(16)
        fa, fb = tmp_path / "f.json", tmp_path / "g.json"
        write_density_json(fa, f)
        write_density_json(fb, f_tilde if target == "f_tilde" else f)
        out = tmp_path / "out"
        code = main(["compare", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out), "--tolerance", "1e-2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        if target == "f":
            assert report["oracle_optimum"] == 0.0

    def test_oversized_grid_exits_3(self, tmp_path, capsys):
        g = Grid1D.uniform(0.0, 1.0, 17)
        d = gaussian_2d(g, g, rho=0.2)
        fa = tmp_path / "f.json"
        write_density_json(fa, d)
        code = main(["compare", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("shape", [(1, 4), (4, 1)], ids=["1x4", "4x1"])
@pytest.mark.parametrize("command", ["solve", "check-el", "compare"])
def test_one_cell_axis(tmp_path, command, shape):
    # a map cannot vary along an axis with one cell, so that axis adds
    # nothing to the stationarity residual
    d = DiscreteDensity2D.from_values(
        Grid1D.uniform(0.0, 1.0, shape[0]), Grid1D.uniform(0.0, 1.0, shape[1]),
        np.arange(1.0, 5.0).reshape(shape),
    )
    fa = tmp_path / "f.json"
    write_density_json(fa, d)
    out = tmp_path / "out"
    assert main([command, "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    residual = {
        "solve": lambda: report["el_residual"]["interior_l2"],
        "check-el": lambda: report["interior_l2"],
        "compare": lambda: report["el_residual_interior_l2"],
    }[command]()
    assert math.isfinite(residual)


def test_module_entry_point_runs(tmp_path):
    g = Grid1D.uniform(0.0, 1.0, 4)
    d = smooth_random_density_2d(g, g, seed=9)
    fa = tmp_path / "f.json"
    write_density_json(fa, d)
    # the subprocess must import the same package as this test, installed or not
    src = str(Path(planar_mk.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "planar_mk.cli", "check-el",
         "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_parser_built_once_and_not_on_import(tmp_path, capsys, monkeypatch):
    src = str(Path(planar_mk.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", "import planar_mk.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "0", proc.stderr
    cli._parser.cache_clear()
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    missing = str(tmp_path / "missing.json")
    argv = ["solve", "--input-f", missing, "--input-g", missing, "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1 and main(argv) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and errors[0] == errors[1] and errors[0].startswith("error:")
    # the command runs through the module attribute, patched or not
    monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
    assert main(argv) == 7
    assert len(built) == 1
