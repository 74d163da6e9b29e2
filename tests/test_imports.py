"""Import budget: only ``simulate`` loads SciPy.

``import floatdyn`` and the ``analyze``, ``verify``, ``clip`` and
``modes`` subcommands run on numpy alone; ``scipy.integrate`` (most of
the start-up time of a CLI child) is imported inside the integrators.
Each check runs in a fresh interpreter, since the test process itself
has SciPy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from floatdyn import save_stl, shapes

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
import floatdyn, floatdyn.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    code = floatdyn.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


@pytest.fixture()
def barge_config(tmp_path):
    # no "symmetry": that check builds a KD-tree from scipy.spatial
    mesh_path = tmp_path / "barge.stl"
    save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
    path = tmp_path / "barge.json"
    path.write_text(json.dumps({
        "mesh_path": str(mesh_path),
        "uniform_density": 500.0,
        "fluid_density": 1000.0,
        "gravity": 9.81,
        "simulate": {"t_end": 0.2, "dt": 0.1},
    }))
    return path


def run_child(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_only_subcommands_load_no_scipy(barge_config, tmp_path):
    config = str(barge_config)
    report = str(tmp_path / "report.json")
    loaded = run_child([
        ["analyze", "--config", config, "--out", report],
        ["verify", "--config", config, "--loops", "1", "--poses", "3",
         "--out", str(tmp_path / "verify.json")],
        ["clip", "--config", config, "--out", str(tmp_path / "wet.stl")],
        ["modes", "--report", report, "--out", str(tmp_path / "modes.json")],
    ])
    assert set(loaded) == {"import", "analyze", "verify", "clip", "modes"}
    assert all(modules == [] for modules in loaded.values()), loaded


def test_simulate_loads_scipy_integrate(barge_config, tmp_path):
    # the check above is not vacuous: the child does see SciPy when loaded
    loaded = run_child([
        ["simulate", "--config", str(barge_config), "--out", str(tmp_path / "t.csv")],
    ])
    assert loaded["import"] == []
    assert "scipy.integrate" in loaded["simulate"]


def test_config_method_list_matches_solve_ivp():
    # the config check keeps its own copy to avoid importing scipy.integrate
    from scipy.integrate._ivp.ivp import METHODS

    from floatdyn.report import _INTEGRATOR_METHODS

    assert sorted(_INTEGRATOR_METHODS) == sorted(METHODS)
