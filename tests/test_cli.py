import json

import numpy as np
import pytest

from floatdyn import Report, save_stl, shapes
from floatdyn.cli import main
from floatdyn.report import AnalysisConfig, run_analysis
from floatdyn.errors import ConfigError


@pytest.fixture()
def barge_config(tmp_path):
    mesh_path = tmp_path / "barge.stl"
    save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
    config = {
        "mesh_path": str(mesh_path),
        "uniform_density": 500.0,
        "fluid_density": 1000.0,
        "gravity": 9.81,
        "symmetry": True,
    }
    path = tmp_path / "barge.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def cube_config(tmp_path):
    mesh_path = tmp_path / "cube.stl"
    save_stl(mesh_path, shapes.unit_cube())
    config = {
        "mesh_path": str(mesh_path),
        "uniform_density": 500.0,
        "fluid_density": 1000.0,
        "gravity": 9.81,
        "symmetry": True,
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(config))
    return path


class TestAnalyze:
    def test_stable_barge_exits_zero(self, barge_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", str(barge_config), "--out", str(out)])
        assert code == 0
        report = Report.load(out)
        assert report.stability["pseudo_stable"] is True
        assert report.stability["gm_transverse"] == pytest.approx(5 / 24, rel=1e-9)
        assert report.stability["gm_longitudinal"] == pytest.approx(29 / 24, rel=1e-9)
        assert "pseudo-stable" in capsys.readouterr().out

    def test_unstable_cube_exits_two(self, cube_config, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", str(cube_config), "--out", str(out)])
        assert code == 2
        report = Report.load(out)
        assert report.stability["pseudo_stable"] is False
        assert report.stability["gm_transverse"] == pytest.approx(-1 / 12, abs=1e-10)

    def test_missing_mesh_exits_one(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "mesh_path": str(tmp_path / "nope.stl"),
            "uniform_density": 500.0,
        }))
        code = main(["analyze", "--config", str(config)])
        assert code == 1
        assert "nope.stl" in capsys.readouterr().err

    def test_report_round_trips(self, barge_config, tmp_path):
        report, _ = run_analysis(AnalysisConfig.from_file(barge_config))
        path = tmp_path / "r.json"
        report.save(path)
        again = Report.load(path)
        assert again == report
        assert again.schema_version == 1

    def test_explicit_mass_with_inertia(self, tmp_path):
        mesh_path = tmp_path / "barge.stl"
        save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
        inertia = (500.0 / 12.0 * np.diag([1.25, 4.25, 5.0])).tolist()
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "mesh_path": str(mesh_path),
            "mass": 500.0,
            "inertia": inertia,
            "fluid_density": 1000.0,
            "symmetry": True,
        }))
        report, _ = run_analysis(AnalysisConfig.from_file(config))
        assert report.equilibrium["pose"]["zeta"] == pytest.approx(0.0, abs=1e-10)


class TestConfigValidation:
    def test_both_mass_and_density_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mesh_path": "x.stl", "mass": 1.0, "uniform_density": 1.0,
        }))
        with pytest.raises(ConfigError):
            AnalysisConfig.from_file(path)

    def test_neither_mass_nor_density_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mesh_path": "x.stl"}))
        with pytest.raises(ConfigError):
            AnalysisConfig.from_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "mesh_path": "x.stl", "mass": 1.0, "bogus": 2,
        }))
        with pytest.raises(ConfigError):
            AnalysisConfig.from_file(path)

    @pytest.mark.parametrize(
        "section, key",
        [("solver", "tolerance"), ("integrator", "rtl"), ("simulate", "tend"),
         ("simulate.initial", "thta")],
    )
    def test_unknown_section_keys_exit_one(self, barge_config, capsys, section, key):
        # a misspelled option must not silently fall back to its default
        config = json.loads(barge_config.read_text())
        if section == "simulate.initial":
            config["simulate"] = {"initial": {key: 0.1}}
        else:
            config[section] = {key: 0.1}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config), "--t-end", "0.1"]) == 1
        err = capsys.readouterr().err
        assert f"unknown '{section}' keys: ['{key}']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [60.5, True, "60"])
    def test_non_integer_max_iter_rejected(self, barge_config, capsys, value):
        config = json.loads(barge_config.read_text())
        config["solver"] = {"max_iter": value}
        barge_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(barge_config)]) == 1
        assert "'solver.max_iter' must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "momenta", [[0.0, 30.0], [0.0, 0.0, float("nan")], "spin"], ids=["two", "nan", "text"]
    )
    def test_bad_momenta_rejected(self, barge_config, capsys, momenta):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"momenta": momenta}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config), "--t-end", "0.1"]) == 1
        assert "'simulate.momenta'" in capsys.readouterr().err

    def test_config_errors_exit_one(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["analyze", "--config", str(path)]) == 1

    def test_non_finite_gravity_exits_one_naming_the_key(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["gravity"] = float("nan")
        barge_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(barge_config)]) == 1
        assert "'gravity'" in capsys.readouterr().err

    def test_negative_simulate_dt_exits_one_without_traceback(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"dt": -0.01}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert "'simulate.dt'" in err
        assert "Traceback" not in err

    def test_unknown_simulate_mode_rejected(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"mode": "ful"}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        assert "'simulate.mode'" in capsys.readouterr().err

    def test_command_line_overrides_are_checked(self, barge_config, capsys):
        code = main(["simulate", "--config", str(barge_config), "--t-end", "nan"])
        assert code == 1
        assert "'simulate.t_end'" in capsys.readouterr().err

    def test_library_argument_checks_exit_one(self, tmp_path, capsys):
        # an inertia tensor that is not positive definite fails the body
        # check in the library, not the config check
        mesh_path = tmp_path / "barge.stl"
        save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "mesh_path": str(mesh_path),
            "mass": 500.0,
            "inertia": (-np.eye(3)).tolist(),
        }))
        assert main(["analyze", "--config", str(config)]) == 1
        assert "inertia" in capsys.readouterr().err

    def test_non_finite_start_exits_one_without_traceback(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"initial": {"theta": float("inf")}}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert "'simulate'" in err
        assert "Traceback" not in err

    def test_unknown_integrator_method_rejected(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["integrator"] = {"method": "RK4"}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        assert "'integrator.method'" in capsys.readouterr().err

    def test_zero_atol_accepted(self, barge_config):
        # atol 0 is pure relative error control in solve_ivp
        config = json.loads(barge_config.read_text())
        config["integrator"] = {"rtol": 1e-9, "atol": 0}
        barge_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(barge_config)]) == 0

    @pytest.mark.parametrize(
        "key, value",
        [("atol", -1e-10), ("max_step", 0.0), ("max_step", float("nan")), ("rtol", True)],
    )
    def test_out_of_range_integrator_option_rejected(self, barge_config, capsys, key, value):
        config = json.loads(barge_config.read_text())
        config["integrator"] = {key: value}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        assert f"'integrator.{key}'" in capsys.readouterr().err

    def test_cg_with_uniform_density_rejected(self, tmp_path):
        from floatdyn.report import load_body

        mesh_path = tmp_path / "c.stl"
        save_stl(mesh_path, shapes.unit_cube())
        with pytest.raises(ConfigError):
            load_body(AnalysisConfig(
                mesh_path=str(mesh_path), uniform_density=500.0, cg=[0.1, 0, 0],
            ))

    def test_cg_without_inertia_rejected(self, tmp_path):
        from floatdyn.report import load_body

        mesh_path = tmp_path / "c.stl"
        save_stl(mesh_path, shapes.unit_cube())
        with pytest.raises(ConfigError):
            load_body(AnalysisConfig(
                mesh_path=str(mesh_path), mass=400.0, cg=[0.0, 0.0, 0.1],
            ))

    def test_cg_with_inertia_shifts_the_mesh(self, tmp_path):
        from floatdyn.report import load_body

        mesh_path = tmp_path / "c.stl"
        save_stl(mesh_path, shapes.unit_cube())
        mesh, body, center = load_body(AnalysisConfig(
            mesh_path=str(mesh_path), mass=400.0, cg=[0.0, 0.0, 0.1],
            inertia=(400.0 / 6.0 * np.eye(3)).tolist(),
        ))
        np.testing.assert_allclose(center, [0.0, 0.0, 0.1])
        np.testing.assert_allclose(mesh.volume_centroid, [0.0, 0.0, -0.1],
                                   atol=1e-12)


class TestSimulate:
    def test_equilibrium_start_constant_columns(self, barge_config, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", "--config", str(barge_config), "--out", str(out),
            "--t-end", "1.0", "--dt", "0.1",
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].split(",")[0] == "t"
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        np.testing.assert_allclose(data[:, 3], data[0, 3], atol=1e-9)  # zeta
        np.testing.assert_allclose(data[:, 5], 0.0, atol=1e-10)        # theta

    def test_last_sample_overshooting_by_roundoff_ends_at_t_end(self, barge_config, tmp_path):
        # 7 * 0.1 = 0.7000000000000001 > 0.7: solve_ivp would reject it
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", "--config", str(barge_config), "--out", str(out),
            "--t-end", "0.7", "--dt", "0.1",
        ])
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data.shape[0] == 8
        assert data[-1, 0] == 0.7

    def test_heave_release_oscillates_at_modal_period(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "mode": "full",
            "t_end": 3.0,
            "dt": 0.005,
            "initial": {"zeta": 0.01},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        t, z = data[:, 0], data[:, 3]
        up = np.nonzero((z[:-1] < 0) & (z[1:] >= 0))[0]
        crossings = [
            t[i] - z[i] * (t[i + 1] - t[i]) / (z[i + 1] - z[i]) for i in up
        ]
        period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
        expected = 2 * np.pi * np.sqrt(500.0 / (1000.0 * 9.81 * 2.0))
        assert period == pytest.approx(expected, rel=0.01)

    def test_reduced_mode_matches_full(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "t_end": 1.0, "dt": 0.01,
            "initial": {"zeta": 0.01, "theta": 0.02},
        }
        config["integrator"] = {"rtol": 1e-11, "atol": 1e-12}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        full_csv = tmp_path / "full.csv"
        red_csv = tmp_path / "red.csv"
        assert main(["simulate", "--config", str(path), "--out", str(full_csv),
                     "--mode", "full"]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(red_csv),
                     "--mode", "reduced"]) == 0
        full = np.genfromtxt(full_csv, delimiter=",", skip_header=1)
        red = np.genfromtxt(red_csv, delimiter=",", skip_header=1)
        np.testing.assert_allclose(red[:, 3], full[:, 3], atol=1e-6)  # zeta
        np.testing.assert_allclose(red[:, 5], full[:, 5], atol=1e-6)  # theta


    def test_reduced_mode_accepts_momenta(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "t_end": 0.5, "dt": 0.05,
            "initial": {"theta": 0.02},
            "momenta": [0.0, 0.0, 30.0],
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "spin.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--mode", "reduced"]) == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        np.testing.assert_allclose(data[:, 16], 30.0, atol=1e-9)  # p_psi column
        assert abs(data[-1, 4]) > 1e-3  # yaw actually advances

    def test_momenta_give_the_same_motion_in_both_modes(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "t_end": 1.0, "dt": 0.01,
            "initial": {"zeta": 0.01, "theta": 0.02, "phi": -0.03},
            "momenta": [0.0, 0.0, 30.0],
        }
        config["integrator"] = {"rtol": 1e-11, "atol": 1e-12}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        tables = {}
        for mode in ("full", "reduced"):
            out = tmp_path / f"{mode}.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out),
                         "--mode", mode]) == 0
            tables[mode] = np.genfromtxt(out, delimiter=",", skip_header=1)
            np.testing.assert_allclose(tables[mode][:, 16], 30.0, atol=1e-9)  # p_psi
        np.testing.assert_allclose(  # zeta, theta, phi
            tables["reduced"][:, [3, 5, 6]], tables["full"][:, [3, 5, 6]], atol=1e-6
        )

    def test_full_mode_rejects_cyclic_rates_with_momenta(self, barge_config, capsys):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "t_end": 0.1, "dt": 0.05, "initial": {"psi_dot": 0.3}, "momenta": [0, 0, 30],
        }
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config), "--mode", "full"]) == 1
        err = capsys.readouterr().err
        assert "'simulate.initial.psi_dot'" in err
        assert "Traceback" not in err

    def test_reduced_mode_starts_from_cyclic_coordinates(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
            "t_end": 0.1, "dt": 0.05,
            "initial": {"zeta": 0.01, "xi": 2.0, "psi": 0.5},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "red.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--mode", "reduced"]) == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data[0, 1] == 2.0  # xi
        assert data[0, 4] == 0.5  # psi

    @pytest.mark.parametrize("key", ["xi_dot", "eta_dot", "psi_dot"])
    def test_reduced_mode_rejects_cyclic_rates(self, barge_config, capsys, key):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"t_end": 0.1, "dt": 0.05, "initial": {key: 0.3}}
        barge_config.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(barge_config), "--mode", "reduced"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"'simulate.initial.{key}'" in err
        assert "Traceback" not in err


class TestModes:
    def test_modal_recompute_from_report(self, barge_config, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["analyze", "--config", str(barge_config), "--out", str(report_path)])
        out = tmp_path / "modes.json"
        assert main(["modes", "--report", str(report_path), "--out", str(out)]) == 0
        modal = json.loads(out.read_text())
        stored = Report.load(report_path).modal
        np.testing.assert_allclose(modal["lambdas"], stored["lambdas"], rtol=1e-12)
        # one formatter serves both: the payload is the report's modal
        # block without the reduced mass it was computed from
        assert modal == {k: v for k, v in stored.items() if k != "reduced_mass"}


class TestVerify:
    def test_cube_geometry_passes(self, cube_config, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", str(cube_config), "--out", str(out),
                     "--poses", "6", "--loops", "1", "--seed", "5"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_mesh_reports_watertightness(self, tmp_path, capsys):
        # drop one facet from the cube: the leak must surface as a clear
        # watertightness diagnostic, not a crash
        cube = shapes.unit_cube()
        save_stl(tmp_path / "leaky.stl", cube.triangle_vertices[:-1])
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "mesh_path": str(tmp_path / "leaky.stl"),
            "uniform_density": 500.0,
        }))
        code = main(["verify", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "edge" in err or "partner" in err

    @pytest.mark.parametrize(
        "flag, value", [("--poses", "0"), ("--poses", "-2"), ("--loops", "0")]
    )
    def test_non_positive_counts_exit_one(self, cube_config, capsys, flag, value):
        code = main(["verify", "--config", str(cube_config), flag, value])
        assert code == 1
        out, err = capsys.readouterr()
        assert f"error: '{flag}'" in err
        assert "PASS" not in out

    def test_negative_seed_exits_one(self, cube_config, capsys):
        code = main(["verify", "--config", str(cube_config), "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: 'seed'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_config_seed_exits_one(self, cube_config, capsys, seed):
        config = json.loads(cube_config.read_text())
        config["seed"] = seed
        cube_config.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cube_config)]) == 1
        assert "error: 'seed'" in capsys.readouterr().err


class TestClip:
    def test_exports_solid(self, cube_config, tmp_path, capsys):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose", "0.1,0.2,0.05"])
        assert code == 0
        assert out.exists()
        assert "cap loop" in capsys.readouterr().out

    def test_emerged_pose_fails(self, cube_config, tmp_path):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose=-5.0,0,0"])
        assert code == 1

    def test_more_than_six_pose_values_rejected(self, cube_config, tmp_path, capsys):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose", "0.01,0,0,0,0,0,9"])
        assert code == 1
        assert "six" in capsys.readouterr().err
        assert not out.exists()
