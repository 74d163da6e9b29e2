import dataclasses
import json
import re
import time
import warnings

import numpy as np
import pytest

from floatdyn import Pose, Report, clip_by_waterplane, save_stl, shapes
from floatdyn.cli import main
from floatdyn.clipping import evaluate
from floatdyn.mesh import MAX_OFFSET, _parse_stl_binary, load_stl
from floatdyn.report import AnalysisConfig, load_body, run_analysis
from floatdyn.errors import ConfigError, GimbalLock
from helpers import (
    MALFORMED_RECORDS, random_convex_mesh, touching_loops, vertex_on_plane_poses,
)


#: inertia about the centroid of the 2 x 1 x 0.5 barge of 500 kg
BARGE_INERTIA = (500.0 / 12.0 * np.diag([1.25, 4.25, 5.0])).tolist()


@pytest.fixture()
def barge_config(tmp_path):
    mesh_path = tmp_path / "barge.stl"
    save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
    config = {
        "mesh_path": str(mesh_path),
        "uniform_density": 500.0,
        "fluid_density": 1000.0,
        "gravity": 9.81,
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
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(config))
    return path


def set_span(path, t_end, dt=None):
    """Write ``simulate.t_end``, and ``simulate.dt`` if given, into the
    config at ``path``, keeping its other keys; returns the path as text."""
    config = json.loads(path.read_text())
    span = {"t_end": t_end} if dt is None else {"t_end": t_end, "dt": dt}
    config["simulate"] = {**config.get("simulate", {}), **span}
    path.write_text(json.dumps(config))
    return str(path)


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
        report = run_analysis(AnalysisConfig.from_file(barge_config))
        path = tmp_path / "r.json"
        report.save(path)
        again = Report.load(path)
        assert again == report
        assert again.schema_version == 1

    def test_report_sections_are_the_result_fields(self, barge_config, tmp_path):
        # equilibrium and stability are written field by field, in order
        from floatdyn import EquilibriumResult, StabilityReport

        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(barge_config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for section, result in (("equilibrium", EquilibriumResult),
                                ("stability", StabilityReport)):
            assert list(report[section]) == [f.name for f in dataclasses.fields(result)]
        assert list(report["equilibrium"]["pose"]) == ["xi", "eta", "zeta", "psi", "theta", "phi"]
        assert list(report) == ["schema_version", "config", "cg_shift", "equilibrium",
                                "hydrostatics", "stability", "modal", "verification"]

    def test_explicit_mass_with_inertia(self, tmp_path):
        mesh_path = tmp_path / "barge.stl"
        save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "mesh_path": str(mesh_path),
            "mass": 500.0,
            "inertia": BARGE_INERTIA,
            "fluid_density": 1000.0,
        }))
        report = run_analysis(AnalysisConfig.from_file(config))
        assert report.equilibrium["pose"]["zeta"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_loose_solver_tolerance_is_accepted(self, tmp_path, command):
        # what the solver accepts at solver.tol, the Hessian check accepts
        mesh_path = tmp_path / "lprism.stl"
        save_stl(mesh_path, shapes.l_prism(jitter=0.02, seed=11))
        config = tmp_path / "lprism.json"
        config.write_text(json.dumps({
            "mesh_path": str(mesh_path), "uniform_density": 600.0, "fluid_density": 1000.0,
            "initial_guess": [0.0, 0.1, 0.05], "solver": {"tol": 1e-6},
            "simulate": {"t_end": 0.05},
        }))
        assert main([command, "--config", str(config)]) == 0


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

    def test_missing_mesh_path_exits_one(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"uniform_density": 500.0}))
        assert main(["analyze", "--config", str(path)]) == 1
        assert "error: config file" in capsys.readouterr().err

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
        config["simulate"] = {"t_end": 0.1}
        if section == "simulate.initial":
            config["simulate"]["initial"] = {key: 0.1}
        else:
            config.setdefault(section, {})[key] = 0.1
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
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
        config["simulate"] = {"t_end": 0.1, "momenta": momenta}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
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
        # the mode is the command line's '--mode' alone: the config key
        # is unknown, whatever its value
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"mode": "ful"}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        assert capsys.readouterr().err == "error: unknown 'simulate' keys: ['mode']\n"

    def test_command_line_overrides_are_checked(self, barge_config, tmp_path, capsys):
        # the pose given on the command line meets the same finiteness
        # check as a config value
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(barge_config), "--out", str(out),
                     "--pose", "nan,0,0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid --pose 'nan,0,0'") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "verify", "clip"])
    @pytest.mark.parametrize("key", ["fluid_density", "gravity", "initial_guess"])
    def test_null_value_exits_one_naming_the_key(
        self, barge_config, tmp_path, capsys, key, command
    ):
        config = json.loads(barge_config.read_text())
        config[key] = None
        config["simulate"] = {"t_end": 0.05}
        barge_config.write_text(json.dumps(config))
        extra = {
            "analyze": [],
            "simulate": [],
            "verify": ["--poses", "3", "--loops", "1"],
            "clip": ["--out", str(tmp_path / "clip.stl")],
        }[command]
        assert main([command, "--config", str(barge_config), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err

    def test_sample_count_overflow_exits_one(self, barge_config, capsys):
        # 1e308 s at the default 0.01 s step is more samples than a float holds
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"t_end": 1e308}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'simulate.t_end'" in err

    def test_tiny_step_exits_one_naming_dt(self, barge_config, capsys):
        # 10 s at 1e-300 s would be 1e301 samples: refused before the
        # equilibrium solve, not by numpy when the sample times are built
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"dt": 1e-300}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'simulate.dt'" in err and "1e+301" in err

    def test_sample_count_bound(self, barge_config):
        # round(t_end / dt) + 1 samples: a million pass, one more does not
        config = json.loads(barge_config.read_text())
        AnalysisConfig(**config, simulate={"t_end": 9.99999, "dt": 1e-5})
        with pytest.raises(ConfigError, match="1e\\+06 samples, more than 1000000"):
            AnalysisConfig(**config, simulate={"t_end": 10.0, "dt": 1e-5})

    def test_removed_symmetry_key_exits_one_naming_it(self, barge_config, capsys):
        # 'symmetry' is no config key: a config that sets it fails loudly
        # instead of being silently ignored
        config = {**json.loads(barge_config.read_text()), "symmetry": True}
        barge_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(barge_config)]) == 1
        assert capsys.readouterr().err == "error: unknown 'config' keys: ['symmetry']\n"

    def test_step_count_bound(self, barge_config):
        # at least t_end / max_step steps: a million pass, more do not;
        # 1e-308 (a simulate that would never end) is refused before any solve
        config = json.loads(barge_config.read_text())
        fine = AnalysisConfig(**config, integrator={"max_step": 1e-5},
                              simulate={"t_end": 10.0, "dt": 0.1})
        for t_end, max_step in ((10.0, 9.9999e-6), (0.5, 1e-308)):
            with pytest.raises(ConfigError, match="'integrator.max_step'"):
                AnalysisConfig(**config, integrator={"max_step": max_step},
                               simulate={"t_end": t_end, "dt": 0.1})
        # a replaced span goes through the same check
        with pytest.raises(ConfigError, match="'integrator.max_step'"):
            dataclasses.replace(fine, simulate={"t_end": 20.0, "dt": 0.1})

    @pytest.mark.parametrize("key", ["fluid_density", "gravity"])
    def test_overflowing_weight_density_exits_one(self, barge_config, capsys, key):
        # rho g = inf would make every force infinite: nan residuals in
        # verify, a late "no convergence" in analyze
        config = {**json.loads(barge_config.read_text()), key: 1e308}
        barge_config.write_text(json.dumps(config))
        assert main(["verify", "--config", str(barge_config), "--poses", "3", "--loops", "1"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: 'fluid_density * gravity' must be a positive finite")
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_zero_atol_with_a_zero_state_component_exits_one(self, barge_config, capsys, mode):
        # pure relative error control gives an exact zero no error scale:
        # the run cannot start, and says so instead of failing at "t = nan"
        config = {**json.loads(barge_config.read_text()), "integrator": {"atol": 0}}
        barge_config.write_text(json.dumps(config))
        argv = ["simulate", "--config", set_span(barge_config, 0.1), "--mode", mode]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integration failed at t = 0: with atol 0 ")
        assert err.count("\n") == 1

    def test_atol_bound(self, barge_config):
        # below the bound the squared scaled error of a unit slope overflows
        config = json.loads(barge_config.read_text())
        for atol in (0.0, 1e-100):
            AnalysisConfig(**config, integrator={"atol": atol})
        for atol in (1e-101, 1e-308):
            with pytest.raises(ConfigError, match="'integrator.atol'"):
                AnalysisConfig(**config, integrator={"atol": atol})

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
        assert "'simulate.initial.theta'" in err
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

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"simulate": {"initial": {"theta": None}}}, "'simulate.initial.theta'"),
            ({"simulate": {"initial": {"zeta": [0.1]}}}, "'simulate.initial.zeta'"),
            ({"initial_guess": [[0], [0], [0]]}, "'initial_guess'"),
            ({"mesh_path": 5}, "'mesh_path'"),
            ({"uniform_density": None, "mass": 500.0, "cg": [0.1, 0.0],
              "inertia": BARGE_INERTIA}, "'cg'"),
            ({"inertia": BARGE_INERTIA}, "'inertia'"),
        ],
        ids=["initial-null", "initial-list", "nested-guess", "numeric-mesh-path", "short-cg",
             "density-and-inertia"],
    )
    def test_bad_value_exits_one_naming_the_key(self, barge_config, capsys, change, key):
        config = {**json.loads(barge_config.read_text()), **change}
        config = {name: value for name, value in config.items() if value is not None}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", set_span(barge_config, 0.05)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_malformed_mesh_exits_one_naming_the_line(self, barge_config, tmp_path, capsys):
        mesh_path = tmp_path / "bad.obj"
        mesh_path.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
        config = {**json.loads(barge_config.read_text()), "mesh_path": str(mesh_path)}
        barge_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(barge_config)]) == 1
        assert "bad.obj, line 2: expected three coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("name, lines, line, message", MALFORMED_RECORDS.values(),
                             ids=MALFORMED_RECORDS)
    def test_malformed_cube_exits_one_with_one_error_line(self, cube_config, tmp_path, capsys,
                                                          name, lines, line, message):
        mesh_path = tmp_path / "bad" / name
        mesh_path.parent.mkdir()
        mesh_path.write_text("\n".join(lines) + "\n")
        config = {**json.loads(cube_config.read_text()), "mesh_path": str(mesh_path)}
        cube_config.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(cube_config)]) == 1
        assert capsys.readouterr().err == f"error: {mesh_path}, line {line}: {message}\n"

    @pytest.mark.parametrize("size", [686, 674], ids=["padded", "cut-short"])
    def test_misfit_binary_stl_exits_one_naming_the_sizes(self, barge_config, capsys, size):
        # the barge's binary STL is 684 bytes: a padded or truncated copy
        # is named as a binary file with the wrong size
        mesh_path = json.loads(barge_config.read_text())["mesh_path"]
        with open(mesh_path, "r+b") as stl:
            stl.truncate(size)
        assert main(["analyze", "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"counts 12 triangles, which need 684 bytes, but the file has {size}" in err

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

    def test_mass_without_inertia_needs_a_centred_mesh(self, tmp_path, capsys):
        # the origin is taken as G: a mesh whose centroid is off it has no
        # shape-derived inertia about G, as with 'cg' but no 'inertia'
        for name, center, code in (("centred", 0.0, 0), ("off", 0.1, 1)):
            mesh_path = tmp_path / f"{name}.stl"
            save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5, center=(0.0, 0.0, center)))
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({
                "mesh_path": str(mesh_path), "mass": 500.0, "fluid_density": 1000.0,
            }))
            assert main(["analyze", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: the mesh's volume centroid (0, 0, 0.1) is 0.0436 diameters")
        assert err.count("\n") == 1 and "'inertia'" in err and "'uniform_density'" in err

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


@pytest.fixture()
def tilted_box_config(tmp_path):
    """A box that floats pitched by about 0.64 rad, pseudo-stable."""
    mesh_path = tmp_path / "box.stl"
    save_stl(mesh_path, shapes.box(1.058, 1.541, 1.032))
    path = tmp_path / "box.json"
    path.write_text(json.dumps({
        "mesh_path": str(mesh_path), "uniform_density": 323, "fluid_density": 1000,
        "initial_guess": [0, 0.18, 0.54],
    }))
    return path


def sweep_hulls(count, rng):
    """Seeded boxes of random size and jittered L-prisms, alternately."""
    for k in range(count):
        if k % 2:
            outer = rng.uniform(0.5, 2.0, 2)
            yield shapes.l_prism(
                outer=tuple(outer), notch=tuple(outer * rng.uniform(0.2, 0.8, 2)),
                length=float(rng.uniform(0.5, 2.0)), jitter=0.02,
                seed=int(rng.integers(1 << 30)),
            )
        else:
            yield shapes.box(*rng.uniform(0.3, 2.0, 3))


class TestStabilitySweep:
    """The verdict and the margins come from the Hessian alone, at any
    equilibrium the solver reports, trimmed and heeled ones included."""

    def test_seeded_hulls(self, tmp_path):
        rng = np.random.default_rng(2)
        analysed = unstable = 0
        for k, mesh in enumerate(sweep_hulls(60, rng)):
            path = tmp_path / f"hull{k}.stl"
            save_stl(path, mesh)
            density = float(rng.uniform(100.0, 900.0))
            angles = rng.uniform(-0.6, 0.6, 2)
            if k % 3 == 0:
                # a box from a level guess has no moments: returned as
                # found, stable or not
                angles[:] = 0.0
            config = AnalysisConfig(
                mesh_path=str(path), uniform_density=density, fluid_density=1000.0,
                initial_guess=[0.0, *angles],
            )
            try:
                report = run_analysis(config)
            except GimbalLock:
                continue  # the first body axis floats vertical
            analysed += 1
            stability = report.stability
            try:
                np.linalg.cholesky(-np.asarray(stability["hessian"]))
                definite = True
            except np.linalg.LinAlgError:
                definite = False
            margins_positive = min(stability["margins"]) > 0.0
            assert stability["pseudo_stable"] == definite == margins_positive, k
            assert (min(report.modal["lambdas"]) > 0.0) == definite, k
            unstable += not definite
        assert analysed >= 40 and 0 < unstable < analysed

    def test_slow_climb_converges_within_the_default_iterations(self, tmp_path):
        # a 30-point convex hull whose climb from this guess takes 71
        # trust-region steps, more than 60
        pytest.importorskip("scipy")
        mesh_path = tmp_path / "hull.stl"
        save_stl(mesh_path, random_convex_mesh(30, 554996936))
        config = tmp_path / "hull.json"
        config.write_text(json.dumps({
            "mesh_path": str(mesh_path), "uniform_density": 331.714, "fluid_density": 1000.0,
            "initial_guess": [0.0, -0.314, 0.166],
        }))
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
        equilibrium = Report.load(out).equilibrium
        assert equilibrium["converged"] and 60 < equilibrium["iterations"] <= 100
        assert equilibrium["pose"]["theta"] == pytest.approx(-1.512, abs=1e-3)
        assert equilibrium["pose"]["phi"] == pytest.approx(-1.339, abs=1e-3)

    def test_tilted_box(self, tilted_box_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(tilted_box_config), "--out", str(out)]) == 0
        assert "verdict: pseudo-stable" in capsys.readouterr().out
        report = Report.load(out)
        assert report.equilibrium["pose"]["theta"] == pytest.approx(0.638, abs=1e-3)
        eigenvalues = np.linalg.eigvalsh(-np.asarray(report.stability["hessian"]))
        np.testing.assert_allclose(eigenvalues, [429.2, 1167.0, 18422.0], rtol=1e-3)
        assert main(["simulate", "--config", set_span(tilted_box_config, 0.05)]) == 0


class TestSimulate:
    def test_runs_no_stability_stage(self, tilted_box_config, monkeypatch):
        # simulate starts from the equilibrium and reads nothing else
        from floatdyn import report

        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran a stability stage")

        for module, name in ((report, "hessian_at_equilibrium"),
                             (report, "pseudo_stability_check"),
                             (report, "normal_modes")):
            monkeypatch.setattr(module, name, refuse)
        assert main(["simulate", "--config", set_span(tilted_box_config, 0.05)]) == 0

    def test_equilibrium_start_constant_columns(self, barge_config, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", set_span(barge_config, 1.0, 0.1), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].split(",")[0] == "t"
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        np.testing.assert_allclose(data[:, 3], data[0, 3], atol=1e-9)  # zeta
        np.testing.assert_allclose(data[:, 5], 0.0, atol=1e-10)        # theta

    def test_failed_integration_exits_one(self, barge_config, tmp_path, capsys, monkeypatch):
        # the metric turns NaN mid-run, so no step can be accepted: simulate
        # must fail rather than write the samples so far and exit 0
        from floatdyn import dynamics

        metric = dynamics._metric_and_partials
        calls = []

        def poisoned(*args):
            calls.append(None)
            out = metric(*args)
            return [np.full_like(a, np.nan) for a in out] if len(calls) > 60 else out

        monkeypatch.setattr(dynamics, "_metric_and_partials", poisoned)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", set_span(barge_config, 1.0, 0.1), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integration failed at t = ")
        assert "the right-hand side is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_start_inside_the_gimbal_margin_exits_one(self, barge_config, capsys, mode):
        # the halt fires on crossing the margin: a start already inside it
        # would integrate next to the pole and only halt on leaving
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"t_end": 0.5, "initial": {"theta": 1.5699}}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: start pitch 1.5699 ") and "margin 0.001" in err

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    @pytest.mark.parametrize("theta", [np.pi / 2, 2.0])
    def test_start_at_or_past_the_pole_exits_one(self, barge_config, capsys, mode, theta):
        # a Pose takes this pitch; the integrator's start check does not
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"t_end": 0.5, "initial": {"theta": theta}}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(barge_config), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: start pitch {theta:.9g} is not inside (-pi/2 + margin, "
                       "pi/2 - margin), with the halt margin 0.001\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["full", "reduced"])
    @pytest.mark.parametrize("gravity", [1e100, 1e200, 1e300])
    def test_gravity_far_from_physical_exits_one_at_once(
        self, barge_config, capsys, mode, gravity
    ):
        # the steps would overflow, or take hours: refused before the first
        config = {**json.loads(barge_config.read_text()), "gravity": gravity}
        config["simulate"] = {"t_end": 0.5}
        barge_config.write_text(json.dumps(config))
        start = time.perf_counter()
        assert main(["simulate", "--config", str(barge_config), "--mode", mode]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: 'gravity' ") and err.count("\n") == 1
        assert "'t_end' 0.5 on a hull of diameter 2.29129" in err

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_release_reaching_the_gimbal_margin_halts_with_a_warning(
        self, barge_config, tmp_path, capsys, mode
    ):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {"t_end": 0.5, "initial": {"theta": 1.4, "theta_dot": 2.0}}
        barge_config.write_text(json.dumps(config))
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(barge_config), "--mode", mode,
                     "--out", str(out)])
        assert code == 0
        assert "warning: integration halted early (gimbal guard)" in capsys.readouterr().err
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data[-1, 0] < 0.5 and np.all(np.abs(data[:, 5]) < np.pi / 2)

    @pytest.mark.parametrize("method", ["LSODA"])
    def test_implicit_method_with_non_finite_forces_exits_one(
        self, barge_config, tmp_path, capsys, monkeypatch, method
    ):
        # LSODA wrote NaN samples and exited 0 on this failure
        pytest.importorskip("scipy")
        from floatdyn import dynamics

        forces = dynamics.generalized_forces
        calls = []

        def poisoned(mesh, pose, env):
            calls.append(None)
            out = forces(mesh, pose, env)
            return np.full_like(out, np.nan) if len(calls) > 30 else out

        monkeypatch.setattr(dynamics, "generalized_forces", poisoned)
        config = json.loads(barge_config.read_text())
        config.update(integrator={"method": method}, simulate={"initial": {"zeta": 0.05}})
        barge_config.write_text(json.dumps(config))
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", set_span(barge_config, 1.0, 0.1), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integration failed ") and "not finite" in err
        assert not out.exists()

    def test_last_sample_overshooting_by_roundoff_ends_at_t_end(self, barge_config, tmp_path):
        # 7 * 0.1 = 0.7000000000000001 > 0.7: solve_ivp would reject it
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", set_span(barge_config, 0.7, 0.1), "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data.shape[0] == 8
        assert data[-1, 0] == 0.7

    def test_heave_release_oscillates_at_modal_period(self, tmp_path, barge_config):
        config = json.loads(barge_config.read_text())
        config["simulate"] = {
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


#: a report with every top-level key and no content
EMPTY_REPORT = {
    "schema_version": 1, "config": {}, "cg_shift": [], "equilibrium": {}, "hydrostatics": {},
    "stability": {}, "modal": {},
}


class TestReportLoad:
    @pytest.mark.parametrize(
        "text, message",
        [pytest.param(None, "report file not found", id="missing-file"),
         pytest.param("{not json", "is not valid JSON", id="bad-json"),
         pytest.param('{"schema_version": 1, "config": {}}', "lacks the keys", id="missing-keys"),
         pytest.param("[1]", "JSON object", id="not-an-object"),
         pytest.param(json.dumps({**EMPTY_REPORT, "schema_version": 99}),
                      "'schema_version' 99", id="unknown-version")],
    )
    def test_bad_report_raises(self, tmp_path, text, message):
        path = tmp_path / "report.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            Report.load(path)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["boolean", "float"])
    def test_version_equal_to_one_but_not_an_integer_raises(
        self, barge_config, tmp_path, version
    ):
        # True == 1 and 1.0 == 1, yet neither is the integer version
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--config", str(barge_config), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        report["schema_version"] = version
        report_path.write_text(json.dumps(report))
        with pytest.raises(ConfigError, match=re.escape(f"'schema_version' {version!r}")):
            Report.load(report_path)


class TestRemovedCommands:
    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--tol", "1e-6"), ("simulate", "--t-end", "0.05"), ("simulate", "--dt", "0.1"),
    ])
    def test_removed_flag_is_a_usage_error(self, barge_config, capsys, command, flag, value):
        # the tolerance, span and step are the config's solver.tol,
        # simulate.t_end and simulate.dt alone
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(barge_config), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {flag} {value}")

    @pytest.mark.parametrize("method", ["RK23", "BDF", "Radau", "RK45"])
    def test_dropped_method_exits_one_naming_the_kept_ones(self, barge_config, capsys, method):
        config = json.loads(barge_config.read_text())
        config["integrator"] = {"method": method}
        barge_config.write_text(json.dumps(config))
        assert main(["simulate", "--config", set_span(barge_config, 0.05)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: 'integrator.method'")
        assert err.rstrip().endswith("must be one of DOP853, LSODA")

    def test_modes_subcommand_is_a_usage_error(self, barge_config, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--config", str(barge_config), "--out", str(report_path)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["modes", "--report", str(report_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'modes'" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "verify", "clip"])
    def test_out_in_missing_directory_exits_one(self, barge_config, tmp_path, capsys, command):
        config = set_span(barge_config, 0.05)
        argv = {
            "analyze": ["analyze", "--config", config],
            "simulate": ["simulate", "--config", config],
            "verify": ["verify", "--config", config, "--poses", "3", "--loops", "1"],
            "clip": ["clip", "--config", config],
        }[command]
        capsys.readouterr()
        out = tmp_path / "missing" / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err


class TestVerify:
    def test_cube_geometry_passes(self, cube_config, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", str(cube_config), "--out", str(out),
                     "--poses", "6", "--loops", "1", "--seed", "5"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_mesh_off_its_origin_passes(self, tmp_path, capsys):
        # an explicit mass without 'cg' keeps the file's origin, here 1 m
        # above the hull's centre (the third axis points down)
        mesh_path = tmp_path / "off.stl"
        save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5).translated((0.0, 0.0, 1.0)))
        config = tmp_path / "off.json"
        config.write_text(json.dumps({"mesh_path": str(mesh_path), "mass": 500.0,
                                      "inertia": BARGE_INERTIA}))
        code = main(["verify", "--config", str(config), "--poses", "10", "--loops", "1"])
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 4

    def test_mesh_far_from_its_origin_passes(self, tmp_path, capsys):
        # 20 m off: the gradient check's steps scale with the hull's reach
        mesh_path = tmp_path / "far.stl"
        save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5).translated((-20.0, 0.0, 2.0)))
        config = tmp_path / "far.json"
        config.write_text(json.dumps({"mesh_path": str(mesh_path), "mass": 500.0,
                                      "inertia": BARGE_INERTIA}))
        code = main(["verify", "--config", str(config), "--seed", "0", "--loops", "1"])
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 4

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

    def test_exhausted_pose_budget_exits_one_without_traceback(
        self, cube_config, capsys, monkeypatch
    ):
        from floatdyn import verification

        monkeypatch.setattr(verification, "_TRIES_PER_POSE", 1)
        assert main(["verify", "--config", str(cube_config), "--poses", "25"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "of the 25 partially submerged poses" in err
        assert err.count("\n") == 1 and "PASS" not in out

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
        assert err == "error: '--seed' must be an integer of at least 0, got -1\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_config_seed_exits_one(self, cube_config, capsys, seed):
        # the seed is the command line's '--seed' alone: the config key is
        # unknown, whatever its value
        config = json.loads(cube_config.read_text())
        config["seed"] = seed
        cube_config.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cube_config)]) == 1
        assert capsys.readouterr().err == "error: unknown 'config' keys: ['seed']\n"

    def test_one_failed_check_fails_the_run(self, cube_config, tmp_path, capsys, monkeypatch):
        # a zero tolerance no residual meets: its line, the JSON verdict
        # and the exit code all say FAIL, the other checks still PASS
        from floatdyn import verification

        monkeypatch.setitem(verification.TOLERANCES, "gradient", 0.0)
        out = tmp_path / "verify.json"
        argv = ["verify", "--config", str(cube_config), "--out", str(out),
                "--poses", "6", "--loops", "1"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines] == ["PASS", "FAIL", "PASS", "PASS"]
        assert lines[1].startswith("gradient ")
        payload = json.loads(out.read_text())
        assert payload["passed"] is False and payload["gradient_tol"] == 0.0
        assert list(payload) == [
            "loop_work", "gradient", "gradient_symmetry", "planar_invariance",
            "loop_work_tol", "gradient_tol", "gradient_symmetry_tol", "planar_invariance_tol",
            "passed",
        ]


def save_shells(path, *shells):
    """Save the triangles of ``shells``, one mesh each, as one STL file;
    a shell given as ``(mesh, "inward")`` is written wound inside out."""
    soup = [
        shell[0].triangle_vertices[:, ::-1] if isinstance(shell, tuple)
        else shell.triangle_vertices
        for shell in shells
    ]
    save_stl(path, np.concatenate(soup))


def save_obj(path, mesh, scale=1.0, shift=(0.0, 0.0, 0.0)):
    """Write ``mesh`` scaled by ``scale`` and moved by ``shift`` as OBJ,
    at full double precision (binary STL holds single precision)."""
    vertices = mesh.vertices * scale + np.asarray(shift)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles.tolist()]
    path.write_text("\n".join(lines) + "\n")


#: the bench hulls about their centroids, their densities and guesses
SCALED_HULLS = {
    "barge": (shapes.box(2.0, 1.0, 0.5), 500.0, [0.0, 0.0, 0.0]),
    "lprism": (shapes.l_prism(outer=(1.0, 1.0), notch=(0.5, 0.5), length=1.0, jitter=0.02,
                              seed=11), 600.0, [0.0, 0.1, 0.05]),
}
#: the direction in which the hulls are moved off their origin
SHIFT = np.array([1.0, 0.7, 0.3]) / np.linalg.norm([1.0, 0.7, 0.3])


class TestScaleAndOffset:
    def config(self, tmp_path, hull, scale=1.0, shift_m=0.0):
        mesh, density, guess = SCALED_HULLS[hull]
        mesh = mesh.translated(-mesh.volume_centroid)
        save_obj(tmp_path / "hull.obj", mesh, scale, shift_m * SHIFT)
        path = tmp_path / "hull.json"
        path.write_text(json.dumps({
            "mesh_path": str(tmp_path / "hull.obj"), "uniform_density": density,
            "fluid_density": 1000.0, "initial_guess": guess,
        }))
        return str(path)

    def analyze(self, config, tmp_path):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--config", config, "--out", str(out)]) == 0
        return Report.load(out)

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1e3, 1e9])
    @pytest.mark.parametrize("hull", SCALED_HULLS)
    def test_scaled_hull_analyzes_without_warning(self, tmp_path, hull, scale):
        unit = self.analyze(self.config(tmp_path, hull), tmp_path)
        scaled = self.analyze(self.config(tmp_path, hull, scale), tmp_path)
        for key in ("gm_transverse", "gm_longitudinal"):
            assert scaled.stability[key] / scale == pytest.approx(unit.stability[key], rel=1e-9)
        for key in ("theta", "phi"):
            assert scaled.equilibrium["pose"][key] == pytest.approx(
                unit.equilibrium["pose"][key], abs=1e-9)

    @pytest.mark.parametrize("diameters", [10.0, MAX_OFFSET])
    @pytest.mark.parametrize("hull", SCALED_HULLS)
    def test_offset_hull_analyzes_without_warning(self, tmp_path, hull, diameters):
        mesh = SCALED_HULLS[hull][0]
        # a little inside the bound, which applies to the bounding-box centre
        shift = 0.99 * diameters * mesh.diameter
        centred = self.analyze(self.config(tmp_path, hull), tmp_path)
        moved = self.analyze(self.config(tmp_path, hull, shift_m=shift), tmp_path)
        assert moved.modal["lambdas"][0] == pytest.approx(centred.modal["lambdas"][0], rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-80, 1e50, 1e60, 1e70, 1e100])
    def test_scale_out_of_range_exits_one_naming_it(self, tmp_path, capsys, scale):
        assert main(["analyze", "--config", self.config(tmp_path, "barge", scale)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mesh ") and len(err.splitlines()) == 1
        assert "supported scale" in err

    # 46.5 m moves the barge (diameter 2.29 m) 20.3 diameters, just past
    # the bound
    @pytest.mark.parametrize("shift_m", [46.5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11])
    def test_far_offset_exits_one_naming_it(self, tmp_path, capsys, shift_m):
        assert main(["analyze", "--config", self.config(tmp_path, "barge", shift_m=shift_m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mesh offset ") and len(err.splitlines()) == 1
        assert "diameters from its origin" in err

    @pytest.mark.parametrize("hull", SCALED_HULLS)
    def test_thousand_diameter_offset_exits_one(self, tmp_path, capsys, hull):
        # the integrals about the origin put the first modal eigenvalue
        # 5% to 10% off here, so the mesh is refused rather than analysed
        shift = 1e3 * SCALED_HULLS[hull][0].diameter
        assert main(["analyze", "--config", self.config(tmp_path, hull, shift_m=shift)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mesh offset ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("scale", [1e-3, 1e-4, 1e-9])
    def test_small_barge_passes_verify(self, tmp_path, capsys, scale):
        # the planar-invariance shifts were 5 m whatever the hull
        config = self.config(tmp_path, "barge", scale)
        assert main(["verify", "--config", config, "--poses", "10", "--loops", "1"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-4, 1e3, 1e6])
    def test_scaled_barge_clip_writes_every_triangle(self, tmp_path, capsys, scale):
        # the STL writer's zero-area cut was absolute below 1 m: the 1e-8
        # barge printed its triangles and wrote none
        counts, volumes = [], []
        for size in (1.0, scale):
            out = tmp_path / "clip.stl"
            assert main(["clip", "--config", self.config(tmp_path, "barge", size),
                         "--out", str(out)]) == 0
            raw = out.read_bytes()
            tris = _parse_stl_binary(raw, (len(raw) - 84) // 50).astype(float)
            counts.append(len(tris))
            volumes.append(np.einsum("ij,ij->i", tris[:, 0],
                                     np.cross(tris[:, 1], tris[:, 2])).sum() / 6 / size**3)
        assert counts[1] == counts[0] > 0
        printed = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()]
        assert printed[0] == printed[1]
        # the STL stores single precision
        assert volumes[1] == pytest.approx(volumes[0], rel=1e-6)

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_fluid_too_dense_for_the_hull_exits_one(self, barge_config, capsys, command):
        config = {**json.loads(barge_config.read_text()), "fluid_density": 1e300}
        barge_config.write_text(json.dumps(config))
        assert main([command, "--config", str(barge_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mass 500") and len(err.splitlines()) == 1
        assert "snap band" in err


class TestShells:
    """A mesh of several shells loads only if no vertex of one lies inside
    another: overlaps count twice, a cavity takes its volume off."""

    @pytest.mark.parametrize("shells", [
        (shapes.unit_cube(), shapes.box(1.0, 1.0, 1.0, center=(0.5, 0.5, 0.5))),
        (shapes.unit_cube(), (shapes.box(0.5, 0.5, 0.5), "inward")),
    ], ids=["overlapping", "cavity"])
    def test_shell_inside_another_exits_one(self, tmp_path, capsys, shells):
        save_shells(tmp_path / "shells.stl", *shells)
        config = tmp_path / "shells.json"
        config.write_text(json.dumps({
            "mesh_path": str(tmp_path / "shells.stl"), "uniform_density": 500.0,
            "fluid_density": 1000.0,
        }))
        assert main(["analyze", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: overlapping shells: vertex ") and err.count("\n") == 1

    def test_disjoint_shells_analyze(self, tmp_path):
        # a catamaran: two barges side by side, each at half density
        barge = shapes.box(2.0, 1.0, 0.5)
        save_shells(tmp_path / "cat.stl", barge, barge.translated((0.0, 2.0, 0.0)))
        config = tmp_path / "cat.json"
        config.write_text(json.dumps({
            "mesh_path": str(tmp_path / "cat.stl"), "uniform_density": 500.0,
            "fluid_density": 1000.0,
        }))
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
        assert Report.load(out).hydrostatics["volume"] == pytest.approx(1.0, rel=1e-12)


class TestClip:
    def test_exports_solid(self, cube_config, tmp_path, capsys):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose", "0.1,0.2,0.05"])
        assert code == 0
        assert out.exists()
        assert "cap loop" in capsys.readouterr().out

    def test_touching_waterline_loops_export(self, tmp_path, capsys):
        # a vertex on the plane pinching the waterline into loops that
        # touch: the export succeeds and holds the submerged volume
        l_prism = shapes.l_prism(outer=(1.0, 1.0), notch=(0.5, 0.5), length=1.0,
                                 jitter=0.02, seed=11)
        save_stl(tmp_path / "l.stl", l_prism)
        config = tmp_path / "l.json"
        config.write_text(json.dumps({"mesh_path": str(tmp_path / "l.stl"),
                                      "uniform_density": 600.0}))
        mesh, _, _ = load_body(AnalysisConfig.from_file(config))
        pose = next(
            p for p in vertex_on_plane_poses(mesh, np.random.default_rng(12), 240)
            if touching_loops(clip_by_waterplane(mesh, p))
        )
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(config), "--out", str(out),
                     f"--pose={pose.zeta!r},{pose.theta!r},{pose.phi!r}"])
        assert code == 0
        tris = load_stl(out).triangle_vertices
        volume = np.einsum("ij,ij->i", tris[:, 0], np.cross(tris[:, 1], tris[:, 2])).sum() / 6
        # the STL stores single precision
        assert volume == pytest.approx(evaluate(mesh, pose).volume, rel=1e-6)

    @pytest.mark.parametrize("theta", [np.pi / 2, 2.0])
    def test_pitch_at_and_past_the_pole_exports(self, barge_config, tmp_path, capsys, theta):
        # (pi - theta, pi) has the same down axis: the same solid
        mesh, _, _ = load_body(AnalysisConfig.from_file(barge_config))
        volumes = []
        for k, (pitch, roll) in enumerate(((theta, 0.0), (np.pi - theta, np.pi))):
            out = tmp_path / f"clip{k}.stl"
            assert main(["clip", "--config", str(barge_config), "--out", str(out),
                         f"--pose=0,{pitch!r},{roll!r}"]) == 0
            # the raw triangles: rounded to single precision, the boundary
            # need not weld watertight
            raw = out.read_bytes()
            tris = _parse_stl_binary(raw, (len(raw) - 84) // 50)
            volumes.append(np.einsum("ij,ij->i", tris[:, 0],
                                     np.cross(tris[:, 1], tris[:, 2])).sum() / 6)
        counts = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()]
        assert counts[0] == counts[1]
        want = evaluate(mesh, Pose(theta=np.pi - theta, phi=np.pi)).volume
        # the STL stores single precision
        assert volumes == pytest.approx([want, want], rel=1e-6)

    def test_emerged_pose_fails(self, cube_config, tmp_path):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose=-5.0,0,0"])
        assert code == 1

    def test_more_than_three_pose_values_rejected(self, cube_config, tmp_path, capsys):
        out = tmp_path / "clip.stl"
        code = main(["clip", "--config", str(cube_config), "--out", str(out),
                     "--pose", "0.01,0,0,9"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--pose" in err and "three" in err
        assert not out.exists()
