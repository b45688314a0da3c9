import json
import subprocess
import sys

import numpy as np
import pytest

from planar_mk.cli import main
from planar_mk.density_io import (
    DensityFormatError,
    read_density,
    read_density_json,
    read_grid_csv,
    write_density_json,
    write_grid_csv,
)
from planar_mk.instances import gaussian_2d, shifted_density_2d, smooth_random_density_2d
from planar_mk.measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D


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

    def test_json_1d(self, tmp_path):
        g = Grid1D.uniform(0.0, 1.0, 5)
        d = DiscreteDensity1D.from_values(g, np.linspace(1.0, 2.0, 5))
        path = tmp_path / "d1.json"
        write_density_json(path, d)
        back = read_density(path)
        assert isinstance(back, DiscreteDensity1D)
        assert np.allclose(back.values, d.values, rtol=1e-12)

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

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid_x": {"min": 0, "max": 1, "n": 3}, "values": [1, 2]}))
        with pytest.raises(DensityFormatError):
            read_density(path)


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

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = main(["solve", "--input-f", str(bad), "--input-g", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

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

    def test_missing_file_exits_1(self, tmp_path):
        code = main([
            "solve",
            "--input-f", str(tmp_path / "nope.json"),
            "--input-g", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_reports_byte_identical_excluding_timing(self, tmp_path):
        fa, fb = write_pair(tmp_path, seed=3)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"multistart": 2, "max_iters": 2000, "seed": 11}))
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

    def test_seed_flag_overrides_config(self, tmp_path):
        fa, fb = write_pair(tmp_path, seed=4)
        out = tmp_path / "out"
        code = main(["solve", "--input-f", fa, "--input-g", fb, "--out-dir", str(out), "--seed", "7"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7
        assert report["config"]["seed"] == 7


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

    def test_oracle_unbalanced_exits_1(self, tmp_path):
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps({"supply": [0.7, 0.7], "demand": [0.5, 0.5], "cost": [[0, 1], [1, 0]]}))
        assert main(["oracle", "--instance", str(inst), "--out-dir", str(tmp_path / "o")]) == 1

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

    def test_oversized_grid_exits_3(self, tmp_path, capsys):
        g = Grid1D.uniform(0.0, 1.0, 16)
        d = gaussian_2d(g, g, rho=0.2)
        fa = tmp_path / "f.json"
        write_density_json(fa, d)
        code = main(["compare", "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "limit" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    g = Grid1D.uniform(0.0, 1.0, 4)
    d = smooth_random_density_2d(g, g, seed=9)
    fa = tmp_path / "f.json"
    write_density_json(fa, d)
    proc = subprocess.run(
        [sys.executable, "-m", "planar_mk.cli", "check-el",
         "--input-f", str(fa), "--input-g", str(fa), "--out-dir", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
