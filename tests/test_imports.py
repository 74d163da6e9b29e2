"""Import budget: the CLI runs on numpy alone.

``import floatdyn``, the ``analyze``, ``verify``, ``clip`` and ``modes``
subcommands and ``simulate`` with an explicit Runge-Kutta method load no
SciPy, and no subcommand loads ``numpy.polynomial`` or ``numpy.ma``
(each adds over a megabyte to the process).  Only the implicit
integrator methods and ``shapes.convex_hull_mesh`` need it, and without
it they raise a typed error naming the ``scipy`` extra.  The integrator module ``floatdyn.rk``
loads only in ``simulate``.  Each check runs in a fresh
interpreter, since the test process itself may have SciPy loaded.  The
tests that need SciPy installed skip without it, so this file also runs
in a numpy-only environment.
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
if sys.argv[2] == "without-scipy":
    sys.modules["scipy"] = None  # as if SciPy were not installed
import floatdyn, floatdyn.cli

def tracked_modules():
    # SciPy's, the integrator only simulate needs, and the numpy
    # subpackages nothing needs (numpy.polynomial held the Gauss nodes,
    # numpy.ma loads with np.unique); a blocked SciPy sits in sys.modules
    # as None
    return sorted(
        m for m, module in sys.modules.items()
        if module is not None and (
            m in ("scipy", "floatdyn.rk", "numpy.polynomial", "numpy.ma")
            or m.startswith("scipy.")
        )
    )

loaded = {"import": tracked_modules()}
for argv in json.loads(sys.argv[1]):
    code = floatdyn.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = tracked_modules()
print(json.dumps(loaded))
"""


@pytest.fixture()
def barge_config(tmp_path):
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


MISSING_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # as if SciPy were not installed
import floatdyn, floatdyn.cli
from floatdyn import shapes

out = {}
for name, argv in json.loads(sys.argv[1]).items():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out[name] = [floatdyn.cli.main(argv), err.getvalue()]
try:
    shapes.convex_hull_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
except floatdyn.FloatDynError as exc:
    out["convex_hull_mesh"] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""


def run_child(commands, scipy="with-scipy", script=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), scipy],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def with_config(path, **changes):
    """A copy of the JSON config at ``path`` with top-level keys changed."""
    config = json.loads(path.read_text())
    config.update(changes)
    changed = path.with_name(f"{path.stem}-{'-'.join(changes)}.json")
    changed.write_text(json.dumps(config))
    return str(changed)


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


@pytest.mark.parametrize("scipy", ["with-scipy", "without-scipy"])
def test_simulate_loads_no_scipy(barge_config, tmp_path, scipy):
    # the default DOP853 and RK45 in both modes run on floatdyn.rk;
    # with SciPy blocked they must still succeed
    rk45 = with_config(barge_config, integrator={"method": "RK45"})
    loaded = run_child([
        ["simulate", "--config", str(barge_config), "--out", str(tmp_path / "t.csv")],
        ["simulate", "--config", rk45, "--mode", "reduced", "--out", str(tmp_path / "r.csv")],
    ], scipy)
    # modules accumulate: the entry after the second run covers both
    assert loaded == {"import": [], "simulate": ["floatdyn.rk"]}


def test_radau_simulate_loads_scipy_integrate(barge_config, tmp_path):
    # the checks above are not vacuous: the child does see SciPy when loaded
    pytest.importorskip("scipy")
    radau = with_config(barge_config, integrator={"method": "Radau"})
    loaded = run_child([["simulate", "--config", radau, "--out", str(tmp_path / "t.csv")]])
    assert loaded["import"] == []
    assert "scipy.integrate" in loaded["simulate"]


def test_features_needing_scipy_raise_a_typed_error_without_it(barge_config, tmp_path):
    out = run_child({
        "implicit": [
            "simulate", "--config", with_config(barge_config, integrator={"method": "BDF"}),
            "--out", str(tmp_path / "t.csv"),
        ],
    }, script=MISSING_SCIPY)
    hint = "pip install floatdyn[scipy]"
    code, err = out["implicit"]
    assert code == 1 and err.startswith("error: ") and hint in err, err
    assert "Traceback" not in err
    assert "'BDF'" in err
    kind, message = out["convex_hull_mesh"]
    assert kind == "MissingDependency" and hint in message
    assert not (tmp_path / "t.csv").exists()


def test_config_method_list_matches_solve_ivp():
    # the config check keeps its own copy to avoid importing scipy.integrate
    pytest.importorskip("scipy")
    from scipy.integrate._ivp.ivp import METHODS

    from floatdyn.report import _INTEGRATOR_METHODS
    from floatdyn.rk import TABLEAUS

    assert sorted(_INTEGRATOR_METHODS) == sorted(METHODS)
    assert set(TABLEAUS) == {"DOP853", "RK45", "RK23"}
